/**
 * @file
 * Parallel sweep execution: a fixed-size worker pool for independent,
 * indexed simulation jobs.
 *
 * The simulator itself is single-threaded by design (one EventQueue,
 * one clock). Sweeps, however, are embarrassingly parallel: every
 * (aging, workload, FTL, seed) cell of a grid owns its RNG streams
 * and its whole Ssd instance, so cells never share mutable state.
 * SweepRunner exploits exactly that structure and nothing more:
 *
 *  - Jobs are identified by a dense index 0..count-1 and pulled from
 *    an atomic cursor, so workers never contend on anything but the
 *    cursor itself.
 *  - SweepRunner makes NO ordering promise about execution. The
 *    determinism contract lives one level up: callers store each
 *    job's result into a slot indexed by its job id and merge slots
 *    in INDEX ORDER after run() returns — never in completion order.
 *    Since each cell is internally deterministic, `jobs == 1` and
 *    `jobs == N` then produce bit-identical merged output.
 *  - Errors propagate instead of killing the process: a job that
 *    throws does not abort the sweep; the remaining jobs still run,
 *    and afterwards the LOWEST-index failure is rethrown on the
 *    calling thread as a SweepError. (Lowest-index, not first-in-time:
 *    the reported failure is the same whatever the interleaving.)
 *    fatal()/exit() must never be reached from inside a job — validate
 *    configurations before calling run().
 *
 * With jobs <= 1 the runner degenerates to a plain sequential loop on
 * the calling thread (no threads are spawned), which is both the
 * default and the reference behaviour the parallel path must match.
 */

#ifndef CUBESSD_SIM_SWEEP_H
#define CUBESSD_SIM_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cubessd::sim {

/**
 * Per-worker load telemetry of one run() call, filled on request.
 * Each worker writes only its own pre-sized slot during the run; the
 * calling thread reads everything after join() — no synchronization
 * beyond thread creation/join is needed. Times are host wall-clock
 * (machine-noisy); job counts are exact.
 */
struct SweepTelemetry
{
    struct Worker
    {
        std::uint64_t jobs = 0;
        /** Jobs claimed outside the worker's static fair share
         *  (job i's "home" worker is i*workers/count) — a measure of
         *  how much the atomic-cursor scheduling rebalanced load. */
        std::uint64_t steals = 0;
        double busyS = 0.0;  ///< summed wall time inside job(i)
        double idleS = 0.0;  ///< worker lifetime minus busy
    };

    double wallS = 0.0;  ///< whole run(), measured on the caller
    std::vector<Worker> workers;

    /** max(busy) / mean(busy): 1.0 = perfectly balanced. */
    double imbalance() const;
};

/** Failure of one sweep job, annotated with the failing job's index. */
class SweepError : public std::runtime_error
{
  public:
    SweepError(std::size_t job, const std::string &message)
        : std::runtime_error("sweep job " + std::to_string(job) + ": " +
                             message),
          job_(job)
    {
    }

    /** Index of the job that failed (lowest, if several did). */
    std::size_t job() const { return job_; }

  private:
    std::size_t job_;
};

class SweepRunner
{
  public:
    /** @param jobs worker threads; <= 1 means run inline, no threads. */
    explicit SweepRunner(unsigned jobs = 1);

    unsigned jobs() const { return jobs_; }

    /**
     * Run `job(0) .. job(count-1)`, each exactly once, across the
     * pool; blocks until all have finished. Jobs must be mutually
     * independent (no shared mutable state); they may run in any
     * order and interleaving. If any job throws, the rest still run
     * and the lowest-index failure is rethrown as SweepError.
     *
     * If `telemetry` is non-null it is reset and filled with one
     * Worker entry per thread actually used (one, on the inline
     * path), even when a job throws.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &job,
             SweepTelemetry *telemetry = nullptr);

  private:
    unsigned jobs_;
};

/**
 * Resolve a worker count from a command line and an environment:
 * an explicit CLI value > 0 wins; else the named environment
 * variable, which must then hold a positive integer (fatal
 * otherwise, naming the variable); else 1.
 */
unsigned resolveJobs(unsigned cliJobs, const char *envVar);

}  // namespace cubessd::sim

#endif  // CUBESSD_SIM_SWEEP_H
