/**
 * @file
 * Simulator hot-path throughput harness (events per wall-clock second).
 *
 * Two measured paths, both written to the BENCH_perf.json sidecar:
 *
 *  - micro: the event queue alone — a fixed population of
 *    self-rescheduling actors with pseudo-random delays, no SSD model.
 *    Measures raw schedule/dispatch cost.
 *  - workload: the full request pipeline — prefilled device, cubeFTL,
 *    OLTP closed loop — events fired by the driver's measured run
 *    divided by the wall time of that run. This is the number the
 *    ROADMAP's "5-10x events/s" open item tracks, and what the CI
 *    perf-smoke job gates against bench/perf_baseline.json
 *    (tools/perf_gate.py).
 *
 * Wall-clock timing is inherently machine-dependent: compare numbers
 * only across runs on the same machine (the CI gate's 20% tolerance
 * absorbs runner noise; regenerate the baseline when the fleet
 * changes).
 *
 * Environment:
 *   CUBESSD_PERF_MICRO_EVENTS  micro event count   (default 4000000)
 *   CUBESSD_PERF_REQUESTS      workload requests   (default 200000)
 *
 * Options:
 *   --profile  self-profile the workload run and emit a per-subsystem
 *              "profile" breakdown into BENCH_perf.json. Do NOT gate a
 *              --profile run against a no-profile baseline — the scope
 *              overhead is part of the measured wall time.
 *   --force    overwrite BENCH_perf.json even when the existing file
 *              records a larger scale than this run (by default a
 *              smoke run refuses to clobber a scaled/full result).
 *
 * The sidecar carries a "host" record (CPU model, nproc, compiler,
 * build type, git SHA) so tools/perf_gate.py can show which machine
 * and build each side of a comparison came from.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/prof/prof.h"

using namespace cubessd;

namespace {

double
wallSeconds(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::uint64_t
envCount(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || env[0] == '\0')
        return fallback;
    const long long v = std::atoll(env);
    return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

struct PathResult
{
    std::uint64_t events = 0;
    double wallS = 0.0;

    double
    eventsPerSec() const
    {
        return wallS > 0.0 ? static_cast<double>(events) / wallS : 0.0;
    }

    double
    nsPerEvent() const
    {
        return events > 0
            ? wallS * 1e9 / static_cast<double>(events)
            : 0.0;
    }
};

void
writePath(metrics::JsonWriter &json, const char *key, const PathResult &r)
{
    json.key(key);
    json.beginObject();
    json.field("events", r.events);
    json.field("wall_s", r.wallS);
    json.field("events_per_s", r.eventsPerSec());
    json.field("ns_per_event", r.nsPerEvent());
    json.endObject();
}

void
printPath(const char *name, const PathResult &r)
{
    std::cout << "  " << name << ": " << r.events << " events in "
              << metrics::format(r.wallS, 3) << " s  ->  "
              << metrics::format(r.eventsPerSec() / 1e6, 2)
              << " M events/s (" << metrics::format(r.nsPerEvent(), 0)
              << " ns/event)\n";
}

/** Rank of a sidecar "scale" tag: bigger = more representative. */
int
scaleRank(const std::string &name)
{
    if (name == "smoke")
        return 0;
    if (name == "scaled")
        return 1;
    if (name == "full")
        return 2;
    return -1;  // unknown / absent: never blocks an overwrite
}

/** The "scale" string recorded in an existing sidecar ("" if none). */
std::string
recordedScale(const char *path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const auto key = text.find("\"scale\"");
    if (key == std::string::npos)
        return "";
    const auto colon = text.find(':', key);
    if (colon == std::string::npos)
        return "";
    const auto open = text.find('"', colon);
    const auto close =
        open == std::string::npos ? open : text.find('"', open + 1);
    if (close == std::string::npos)
        return "";
    return text.substr(open + 1, close - open - 1);
}

/** Where and how this binary was built and run (the sidecar's "host"). */
struct HostRecord
{
    std::string cpu = "unknown";
    unsigned nproc = std::thread::hardware_concurrency();
    std::string compiler = PERF_EVENTS_COMPILER;
    std::string buildType = PERF_EVENTS_BUILD_TYPE;
    std::string gitSha = "unknown";
};

HostRecord
hostRecord()
{
    HostRecord h;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            h.cpu = line.substr(colon + 2);
            break;
        }
    }
    // The SHA of the checkout the bench runs in; "unknown" outside git.
    if (FILE *git = popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof buf, git) != nullptr) {
            std::string sha(buf);
            sha.erase(sha.find_last_not_of("\r\n") + 1);
            if (!sha.empty())
                h.gitSha = sha;
        }
        pclose(git);
    }
    return h;
}

/**
 * Micro path: a fixed population of typed self-rescheduling actors
 * with varying (deterministic) delays, exercising insert/dequeue and
 * the same-timestamp FIFO path without any model code — the same
 * pooled typed-event shape the device hot path uses. Best of three
 * repetitions (first warms the event pool and the branch predictors).
 */
struct MicroActor final : sim::EventHandler
{
    sim::EventQueue *queue = nullptr;
    std::uint64_t *remaining = nullptr;
    std::uint64_t state = 0;

    void
    onEvent(sim::EventKind, const sim::EventPayload &) override
    {
        if (*remaining == 0)
            return;
        --*remaining;
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Delays 0..1023 ns over 64 actors: a mix of same-timestamp
        // ties (FIFO order) and short hops.
        queue->schedule((state >> 33) & 1023,
                        sim::EventKind::DriverTick, this);
    }
};

PathResult
microBench(std::uint64_t totalEvents)
{
    constexpr int kActors = 64;
    PathResult best;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue queue;
        std::uint64_t remaining = totalEvents;
        MicroActor actors[kActors];
        for (int i = 0; i < kActors; ++i) {
            actors[i].queue = &queue;
            actors[i].remaining = &remaining;
            actors[i].state =
                0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i);
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kActors; ++i)
            queue.schedule(static_cast<SimTime>(i),
                           sim::EventKind::DriverTick, &actors[i]);
        queue.run();
        const auto t1 = std::chrono::steady_clock::now();
        PathResult r;
        r.events = queue.fired();
        r.wallS = wallSeconds(t0, t1);
        if (best.events == 0 || r.eventsPerSec() > best.eventsPerSec())
            best = r;
    }
    return best;
}

/** Device-wide term-cache counter totals after a workload run. */
struct TermCacheTotals
{
    std::uint64_t wlHits = 0;
    std::uint64_t wlMisses = 0;
    std::uint64_t agingHits = 0;
    std::uint64_t agingMisses = 0;

    double
    wlHitRate() const
    {
        const std::uint64_t total = wlHits + wlMisses;
        return total ? static_cast<double>(wlHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    agingHitRate() const
    {
        const std::uint64_t total = agingHits + agingMisses;
        return total ? static_cast<double>(agingHits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Workload path: cubeFTL + OLTP closed loop on the scaled device,
 * prefilled. Only the measured run is timed (prefill excluded), so the
 * number reflects the steady-state request pipeline.
 */
PathResult
workloadBench(std::uint64_t requests, double *iopsOut,
              prof::ProfileData *profileOut, TermCacheTotals *cacheOut)
{
    ssd::Ssd dev(bench::ssdConfig(ssd::FtlKind::Cube, 42));
    workload::WorkloadSpec spec{};
    for (const auto &s : workload::allWorkloads())
        if (s.name == "OLTP")
            spec = s;
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 49);
    workload::Driver driver(dev, gen);
    driver.prefill(0.2);

    // Snapshot-delta around the timed window only, so the profile's
    // coverage fraction is computed against the same wall time.
    const prof::ProfileData profBefore =
        profileOut != nullptr ? prof::snapshot() : prof::ProfileData{};
    const std::uint64_t fired0 = dev.queue().fired();
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = driver.run(requests);
    const auto t1 = std::chrono::steady_clock::now();
    if (profileOut != nullptr)
        *profileOut = prof::snapshot().since(profBefore);

    PathResult r;
    r.events = dev.queue().fired() - fired0;
    r.wallS = wallSeconds(t0, t1);
    if (iopsOut != nullptr)
        *iopsOut = result.iops;
    if (cacheOut != nullptr) {
        for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
            const auto &c = dev.chip(i).termCache().counters();
            cacheOut->wlHits += c.wlHits;
            cacheOut->wlMisses += c.wlMisses;
            cacheOut->agingHits += c.agingHits;
            cacheOut->agingMisses += c.agingMisses;
        }
    }
    return r;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool profile = false;
    bool force = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0)
            profile = true;
        else if (std::strcmp(argv[i], "--force") == 0)
            force = true;
        else
            fatal("unknown option '%s' (perf_events accepts --profile "
                  "and --force)",
                  argv[i]);
    }

    // A committed BENCH_perf.json from a full-scale run must not be
    // silently replaced by a CI smoke run's numbers: refuse to
    // downgrade the recorded scale unless --force says so.
    const std::string existing = recordedScale("BENCH_perf.json");
    if (!force && scaleRank(existing) > scaleRank(bench::scaleName())) {
        std::cerr << "perf_events: BENCH_perf.json records a '"
                  << existing << "'-scale result; refusing to "
                  << "overwrite it with this '" << bench::scaleName()
                  << "'-scale run (pass --force to override)\n";
        return 1;
    }

    if (profile)
        prof::setEnabled(true);

    std::cout << "=== perf: simulator events/s (micro + workload) ===\n"
              << "(wall-clock throughput; machine-dependent — compare "
                 "against bench/perf_baseline.json from the same "
                 "machine)\n";

    const HostRecord host = hostRecord();
    std::cout << "host: cpu=\"" << host.cpu << "\" nproc=" << host.nproc
              << " compiler=\"" << host.compiler
              << "\" build=" << host.buildType << " git=" << host.gitSha
              << "\n";

    const std::uint64_t microEvents =
        envCount("CUBESSD_PERF_MICRO_EVENTS", 4000000);
    const std::uint64_t requests =
        envCount("CUBESSD_PERF_REQUESTS", 200000);

    const PathResult micro = microBench(microEvents);
    printPath("micro    ", micro);

    // Only the workload run is attributed: the micro path exists to
    // measure the raw queue, and its profile is just sim.loop/sched.
    double iops = 0.0;
    prof::ProfileData profData;
    TermCacheTotals cache;
    const PathResult workload = workloadBench(
        requests, &iops, profile ? &profData : nullptr, &cache);
    printPath("workload ", workload);
    std::cout << "  workload iops: " << metrics::format(iops, 0) << "\n";
    std::cout << "  term cache: "
              << metrics::format(100.0 * cache.wlHitRate(), 1)
              << "% WL hit rate ("
              << cache.wlHits << " hits / " << cache.wlMisses
              << " misses), "
              << metrics::format(100.0 * cache.agingHitRate(), 1)
              << "% aging hit rate\n";

    if (profile) {
        std::cout << '\n';
        prof::report(std::cout, profData, workload.wallS * 1e9);
    }

    auto jsonOut = bench::openBenchJson("perf");
    metrics::JsonWriter json(jsonOut);
    json.beginObject();
    json.field("bench", "perf_events");
    json.field("scale", bench::scaleName());
    json.key("host");
    json.beginObject();
    json.field("cpu", host.cpu);
    json.field("nproc", static_cast<std::uint64_t>(host.nproc));
    json.field("compiler", host.compiler);
    json.field("build_type", host.buildType);
    json.field("git_sha", host.gitSha);
    json.endObject();
    writePath(json, "micro", micro);
    writePath(json, "workload", workload);
    json.field("workload_requests", requests);
    json.field("workload_iops", iops);
    json.key("term_cache");
    json.beginObject();
    json.field("wl_hits", cache.wlHits);
    json.field("wl_misses", cache.wlMisses);
    json.field("wl_hit_rate", cache.wlHitRate());
    json.field("aging_hits", cache.agingHits);
    json.field("aging_misses", cache.agingMisses);
    json.field("aging_hit_rate", cache.agingHitRate());
    json.endObject();
    if (profile) {
        json.key("profile");
        prof::writeJson(json, profData, workload.wallS * 1e9);
    }
    json.endObject();
    jsonOut << '\n';
    return 0;
}
