/**
 * @file
 * Test-side adapter from a closure to ssd::CompletionSink, so a test
 * body can handle completions inline. One sink serves any number of
 * submissions (the per-request ctx is ignored) and must outlive them.
 */

#ifndef CUBESSD_TESTS_CALLBACK_SINK_H
#define CUBESSD_TESTS_CALLBACK_SINK_H

#include <cstdint>
#include <functional>
#include <utility>

#include "src/ssd/request.h"

namespace cubessd::test {

class CallbackSink final : public ssd::CompletionSink
{
  public:
    explicit CallbackSink(std::function<void(const ssd::Completion &)> fn)
        : fn_(std::move(fn))
    {
    }

    void
    onCompletion(const ssd::Completion &completion, std::uint64_t) override
    {
        fn_(completion);
    }

  private:
    std::function<void(const ssd::Completion &)> fn_;
};

}  // namespace cubessd::test

#endif  // CUBESSD_TESTS_CALLBACK_SINK_H
