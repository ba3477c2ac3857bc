/**
 * @file
 * Benchmark driver: paces a workload into an Ssd and measures IOPS
 * and latency distributions.
 *
 * Two pacing modes, selected by the workload spec:
 *  - steady closed loop (burstLength == 0): `queueDepth` requests are
 *    kept in flight at all times;
 *  - bursty (burstLength > 0): bursts of `burstLength` requests are
 *    submitted back to back; when a burst fully completes, the host
 *    idles for `interBurstGap` before the next one. This is the
 *    pattern under which the WAM's leader/follower steering pays off
 *    (slow leader programs are deferred into the idle gaps).
 *
 * MultiTenantDriver and replayTrace() share its prefillDevice(),
 * MeasuredWindow (elapsed time and utilization) and RunResult
 * recording.
 */

#ifndef CUBESSD_WORKLOAD_DRIVER_H
#define CUBESSD_WORKLOAD_DRIVER_H

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/metrics/request_metrics.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace cubessd::workload {

/** Contiguous logical-page range [base, base + pages). */
struct LbaSpan
{
    Lba base = 0;
    std::uint64_t pages = 0;
};

/**
 * Fill the whole logical space sequentially, then overwrite
 * `overwriteFraction` x pages random single pages of each span in
 * turn, draining between spans. Writes go straight into the host
 * queue, 64 deep.
 */
void prefillDevice(ssd::Ssd &ssd, const std::vector<LbaSpan> &overwrite,
                   double overwriteFraction);

/** A measured window, opened at construction: its elapsed time and
 *  channel/die utilization so far. */
class MeasuredWindow
{
  public:
    explicit MeasuredWindow(ssd::Ssd &ssd)
        : ssd_(ssd), start_(ssd.queue().now()), busy_(busyTimes())
    {
    }

    SimTime elapsed() const { return ssd_.queue().now() - start_; }
    metrics::Utilization utilization() const;

  private:
    /** Busy time of every channel, then of every die. */
    std::vector<SimTime> busyTimes() const;

    ssd::Ssd &ssd_;
    SimTime start_;
    std::vector<SimTime> busy_;  ///< busyTimes() at the opening
};

/** Result of one measured run. */
struct RunResult
{
    std::uint64_t completedRequests = 0;
    /** Completions per ssd::Status (index with the enum value);
     *  statusCounts[0] counts the successes. */
    std::array<std::uint64_t, ssd::kStatusCount> statusCounts{};
    SimTime elapsed = 0;
    double iops = 0.0;
    LatencyRecorder readLatencyUs;
    LatencyRecorder writeLatencyUs;
    /** Time requests waited for a host-queue slot (0 when the queue
     *  depth is unbounded). */
    LatencyRecorder queueWaitUs;
    /** Per-IoType latency histograms + per-phase decomposition of
     *  every completion in the measured window. */
    metrics::RequestMetrics requestMetrics;
    /** Channel/die busy fractions over the measured window. */
    metrics::Utilization utilization;

    /** Count one completion and add its latencies. */
    void record(const ssd::Completion &c);

    /** Set elapsed, iops and utilization at the end of `window`. */
    void close(const MeasuredWindow &window);

    /** Completions that did not finish with Status::Ok. */
    std::uint64_t
    failedRequests() const
    {
        std::uint64_t failed = 0;
        for (std::size_t s = 1; s < statusCounts.size(); ++s)
            failed += statusCounts[s];
        return failed;
    }
};

class Driver final : public ssd::CompletionSink, public sim::EventHandler
{
  public:
    Driver(ssd::Ssd &ssd, WorkloadGenerator &generator);

    /**
     * prefillDevice() over the generator's working set, so
     * measurements run against a full, GC-active device.
     */
    void prefill(double overwriteFraction = 0.3);

    /** Run `requests` requests and collect IOPS/latency. */
    RunResult run(std::uint64_t requests);

    /** ssd::CompletionSink: a submitted request completed (ctx is the
     *  submitting thread). */
    void onCompletion(const ssd::Completion &completion,
                      std::uint64_t ctx) override;

    /** sim::EventHandler: a burst thread's think time expired. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

  private:
    struct ThreadState
    {
        std::uint64_t outstanding = 0;
        std::uint64_t burstRemaining = 0;
    };

    void submitOne(std::uint32_t thread);
    std::uint64_t sampleBurstLength();

    ssd::Ssd &ssd_;
    WorkloadGenerator &generator_;
    Rng pacingRng_;

    // live run state
    RunResult *result_ = nullptr;
    std::uint64_t toSubmit_ = 0;
    std::uint64_t outstanding_ = 0;
    std::vector<ThreadState> threads_;
};

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_DRIVER_H
