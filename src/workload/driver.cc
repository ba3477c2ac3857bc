#include "src/workload/driver.h"

#include "src/common/logging.h"
#include "src/common/units.h"

namespace cubessd::workload {

void
RunResult::record(const ssd::Completion &c)
{
    auto &rec =
        c.type == ssd::IoType::Read ? readLatencyUs : writeLatencyUs;
    rec.add(toMicroseconds(c.latency()));
    queueWaitUs.add(toMicroseconds(c.queueWait()));
    requestMetrics.record(c);
    ++statusCounts[static_cast<std::size_t>(c.status)];
    ++completedRequests;
}

void
RunResult::close(const MeasuredWindow &window)
{
    elapsed = window.elapsed();
    iops = elapsed > 0
        ? static_cast<double>(completedRequests) / toSeconds(elapsed)
        : 0.0;
    utilization = window.utilization();
}

namespace {

/** Counts the prefill's writes in flight. */
struct PrefillSink final : ssd::CompletionSink
{
    std::uint64_t outstanding = 0;

    void onCompletion(const ssd::Completion &, std::uint64_t) override
    {
        --outstanding;
    }
};

/** Submit `count` writes built by `next`, keeping 64 in flight, and
 *  wait for the last to complete. */
template <typename Next>
void
writeAll(ssd::Ssd &ssd, PrefillSink &sink, std::uint64_t count,
         Next next)
{
    constexpr std::uint64_t kDepth = 64;
    while (count > 0 || sink.outstanding > 0) {
        while (count > 0 && sink.outstanding < kDepth) {
            ssd::HostRequest req = next();
            req.type = ssd::IoType::Write;
            --count;
            ++sink.outstanding;
            ssd.hostQueue().submit(req, &sink, 0);
        }
        if (sink.outstanding > 0 && !ssd.queue().step())
            panic("prefill: queue drained with I/O outstanding");
    }
}

}  // namespace

void
prefillDevice(ssd::Ssd &ssd, const std::vector<LbaSpan> &overwrite,
              double overwriteFraction)
{
    PrefillSink sink;

    // Phase 1: sequential fill of the whole logical space.
    constexpr std::uint64_t kChunk = 64;
    const std::uint64_t fill = ssd.logicalPages();
    Lba nextLba = 0;
    writeAll(ssd, sink, (fill + kChunk - 1) / kChunk, [&] {
        ssd::HostRequest req;
        req.lba = nextLba;
        req.pages = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kChunk, fill - nextLba));
        nextLba += req.pages;
        return req;
    });

    // Phase 2: random overwrites to reach a GC-realistic state.
    Rng rng(ssd.config().seed ^ 0xFEEDFACEull);
    for (const LbaSpan &span : overwrite) {
        const auto count = static_cast<std::uint64_t>(
            static_cast<double>(span.pages) * overwriteFraction);
        writeAll(ssd, sink, count, [&] {
            ssd::HostRequest req;
            req.lba = span.base + rng.uniformInt(span.pages);
            req.pages = 1;
            return req;
        });
    }
    ssd.drain();
}

std::vector<SimTime>
MeasuredWindow::busyTimes() const
{
    std::vector<SimTime> busy;
    for (std::uint32_t i = 0; i < ssd_.channelCount(); ++i)
        busy.push_back(ssd_.channel(i).busyTime());
    for (std::uint32_t i = 0; i < ssd_.chipCount(); ++i)
        busy.push_back(ssd_.chipUnit(i).busyTime());
    return busy;
}

metrics::Utilization
MeasuredWindow::utilization() const
{
    metrics::Utilization u;
    u.window = elapsed();
    if (u.window == 0)
        return u;
    const std::vector<SimTime> busy = busyTimes();
    for (std::size_t i = 0; i < busy.size(); ++i) {
        auto &series = i < ssd_.channelCount() ? u.channel : u.die;
        series.push_back(static_cast<double>(busy[i] - busy_[i]) /
                         static_cast<double>(u.window));
    }
    return u;
}

Driver::Driver(ssd::Ssd &ssd, WorkloadGenerator &generator)
    : ssd_(ssd), generator_(generator),
      pacingRng_(ssd.config().seed ^ 0xB0B0B0B0ull)
{
}

void
Driver::prefill(double overwriteFraction)
{
    prefillDevice(ssd_, {{0, generator_.workingSetPages()}},
                  overwriteFraction);
}

std::uint64_t
Driver::sampleBurstLength()
{
    // Bursts vary around the spec's mean (uniform +-50%): real hosts
    // do not emit fixed-size bursts, and the jitter also avoids
    // phase-locking between burst cycles and the device's drain time.
    const auto mean = generator_.spec().burstLength;
    const std::uint64_t lo = std::max<std::uint64_t>(1, mean / 2);
    return lo + pacingRng_.uniformInt(mean);
}

void
Driver::submitOne(std::uint32_t thread)
{
    ssd::HostRequest req = generator_.next();
    req.arrival = ssd_.queue().now();
    --toSubmit_;
    ++outstanding_;
    ++threads_[thread].outstanding;

    ssd_.hostQueue().submit(req, this, thread);
}

void
Driver::onCompletion(const ssd::Completion &c, std::uint64_t ctx)
{
    const auto thread = static_cast<std::uint32_t>(ctx);

    // Every measured request is awaited before run() returns and
    // nulls result_; a completion arriving with result_ == nullptr
    // means a request leaked past the measured window.
    if (result_ == nullptr)
        panic("Driver: completion after the measured window "
              "(id %llu)", static_cast<unsigned long long>(c.id));
    result_->record(c);
    --outstanding_;
    auto &t = threads_[thread];
    --t.outstanding;

    const auto &spec = generator_.spec();
    if (spec.burstLength == 0) {
        // Steady closed loop: replace the completed request.
        if (toSubmit_ > 0)
            submitOne(thread);
    } else if (t.outstanding == 0 && toSubmit_ > 0) {
        // This thread's burst completed: idle (exponential think
        // time around the spec's gap), then fire its next burst.
        const SimTime gap = static_cast<SimTime>(
            pacingRng_.exponential(
                static_cast<double>(spec.interBurstGap)));
        sim::EventPayload payload;
        payload.driverTick.thread = thread;
        ssd_.queue().schedule(gap, sim::EventKind::DriverTick, this,
                              payload);
    }
}

void
Driver::onEvent(sim::EventKind, const sim::EventPayload &payload)
{
    auto &t = threads_[payload.driverTick.thread];
    t.burstRemaining = sampleBurstLength();
    while (toSubmit_ > 0 && t.burstRemaining > 0) {
        --t.burstRemaining;
        submitOne(payload.driverTick.thread);
    }
}

RunResult
Driver::run(std::uint64_t requests)
{
    RunResult result;
    result_ = &result;
    toSubmit_ = requests;
    outstanding_ = 0;
    const MeasuredWindow window(ssd_);

    const auto &spec = generator_.spec();
    if (spec.burstLength == 0) {
        threads_.assign(1, ThreadState{});
        const std::uint64_t initial =
            std::min<std::uint64_t>(spec.queueDepth, toSubmit_);
        for (std::uint64_t i = 0; i < initial; ++i)
            submitOne(0);
    } else {
        // Independent burst loops, one per host thread: a straggling
        // request only stalls its own thread, as with a real
        // multi-threaded benchmark client.
        const std::uint32_t n = std::max<std::uint32_t>(1, spec.threads);
        threads_.assign(n, ThreadState{});
        for (std::uint32_t t = 0; t < n && toSubmit_ > 0; ++t) {
            auto &ts = threads_[t];
            ts.burstRemaining = sampleBurstLength();
            while (toSubmit_ > 0 && ts.burstRemaining > 0) {
                --ts.burstRemaining;
                submitOne(t);
            }
        }
    }

    while ((toSubmit_ > 0 || outstanding_ > 0) && ssd_.queue().step()) {
    }
    if (toSubmit_ > 0 || outstanding_ > 0)
        panic("Driver::run: queue drained with requests pending");

    result.close(window);
    result_ = nullptr;
    return result;
}

}  // namespace cubessd::workload
