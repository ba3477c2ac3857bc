#include "src/sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/logging.h"

namespace cubessd::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double
SweepTelemetry::imbalance() const
{
    double maxBusy = 0.0;
    double sumBusy = 0.0;
    for (const Worker &w : workers) {
        maxBusy = std::max(maxBusy, w.busyS);
        sumBusy += w.busyS;
    }
    if (workers.empty() || sumBusy <= 0.0)
        return 1.0;
    return maxBusy / (sumBusy / static_cast<double>(workers.size()));
}

namespace {

/**
 * Rethrow the lowest-index stored failure, if any, as a SweepError.
 * A job that already threw SweepError (e.g. a nested annotated error)
 * is passed through unchanged.
 */
void
rethrowLowest(const std::vector<std::exception_ptr> &errors)
{
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i])
            continue;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const SweepError &) {
            throw;
        } catch (const std::exception &e) {
            throw SweepError(i, e.what());
        } catch (...) {
            throw SweepError(i, "unknown error");
        }
    }
}

}  // namespace

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

void
SweepRunner::run(std::size_t count,
                 const std::function<void(std::size_t)> &job,
                 SweepTelemetry *telemetry)
{
    if (telemetry != nullptr)
        *telemetry = SweepTelemetry{};
    if (count == 0)
        return;

    const Clock::time_point runStart = Clock::now();
    std::vector<std::exception_ptr> errors(count);

    if (jobs_ <= 1 || count == 1) {
        // Reference path: plain sequential loop, no threads. Failures
        // are still collected (not thrown mid-loop) so the surviving
        // jobs run and the reported error matches the parallel path.
        SweepTelemetry::Worker self;
        for (std::size_t i = 0; i < count; ++i) {
            const Clock::time_point jobStart = Clock::now();
            try {
                job(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            ++self.jobs;
            self.busyS += secondsSince(jobStart);
        }
        if (telemetry != nullptr) {
            telemetry->wallS = secondsSince(runStart);
            self.idleS = telemetry->wallS - self.busyS;
            telemetry->workers.push_back(self);
        }
        rethrowLowest(errors);
        return;
    }

    const std::size_t threads =
        std::min<std::size_t>(jobs_, count);
    // Pre-sized before spawn: worker w writes only workers[w], and
    // the caller reads only after join(), so no locking is needed.
    std::vector<SweepTelemetry::Worker> workers(threads);

    std::atomic<std::size_t> cursor{0};
    auto worker = [&](std::size_t self) {
        const Clock::time_point birth = Clock::now();
        SweepTelemetry::Worker &me = workers[self];
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                break;
            const Clock::time_point jobStart = Clock::now();
            try {
                job(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            ++me.jobs;
            me.busyS += secondsSince(jobStart);
            if (i * threads / count != self)
                ++me.steals;
        }
        me.idleS = secondsSince(birth) - me.busyS;
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();

    if (telemetry != nullptr) {
        telemetry->wallS = secondsSince(runStart);
        telemetry->workers = std::move(workers);
    }

    rethrowLowest(errors);
}

unsigned
resolveJobs(unsigned cliJobs, const char *envVar)
{
    if (cliJobs > 0)
        return cliJobs;
    const char *env = envVar != nullptr ? std::getenv(envVar) : nullptr;
    if (env == nullptr)
        return 1;
    unsigned jobs = 0;
    const char *end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, jobs);
    if (ec != std::errc() || ptr != end || jobs == 0)
        fatal("%s: '%s' is not a positive integer", envVar, env);
    return jobs;
}

}  // namespace cubessd::sim
