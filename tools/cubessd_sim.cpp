/**
 * @file
 * cubessd_sim: command-line SSD simulation driver.
 *
 * The tool a downstream user reaches for first: pick an FTL, a
 * workload, an aging state, and a device size; get IOPS, latency
 * percentiles, and the FTL statistics.
 *
 *   cubessd_sim --ftl cube --workload oltp --pe 2000 --retention 12
 *   cubessd_sim --ftl page --workload web --blocks 428 --requests 50000
 *   cubessd_sim --help
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cubessd.h"
#include "src/ftl/cube_ftl.h"
#include "src/prof/prof.h"
#include "src/sim/sweep.h"
#include "src/workload/sweep.h"

using namespace cubessd;

namespace {

struct Options
{
    std::string ftl = "cube";
    std::string workload = "oltp";
    PeCycles pe = 0;
    double retentionMonths = 0.0;
    std::uint32_t blocks = 128;
    std::uint64_t requests = 30000;
    std::uint64_t seed = 42;
    std::uint64_t seedCount = 1;
    unsigned jobs = 0;
    double prefillOverwrite = 0.2;
    std::uint32_t qd = 0;
    /** Multi-tenant mode: engaged when at least one tenant is given. */
    std::vector<workload::TenantSpec> tenants;
    bool openLoop = false;
    double load = 0.0;
    std::uint32_t arbBurst = 4;
    bool verbose = false;
    std::string metricsOut;
    std::string traceOut;
    /** Unset = the trace ring buffer's default capacity. */
    std::optional<std::size_t> traceBuffer;
    /** Counter sampling period; defaults to 1 ms while tracing. */
    std::uint64_t sampleIntervalUs = 0;
    bool listCounters = false;
    bool profile = false;
    std::string profileOut;
    nand::FaultParams faults{};
};

void
usage()
{
    std::cout <<
        "cubessd_sim - PS-aware 3D NAND SSD simulator (MICRO-52 "
        "reproduction)\n\n"
        "Runs one workload (default), a --seeds sweep, or --tenants on a\n"
        "shared device. Numeric values must be finite and non-negative.\n\n"
        "device and workload:\n"
        "  --ftl <page|vert|cube|cube->  FTL to drive (default cube)\n"
        "  --workload <name>            mail|web|proxy|oltp|rocks|mongo|\n"
        "                               readhot|writeheavy (default oltp)\n"
        "  --pe <cycles>                injected P/E wear (default 0)\n"
        "  --retention <months>         injected retention (default 0)\n"
        "  --blocks <n>                 blocks per chip (default 128; the\n"
        "                               paper's device uses 428)\n"
        "  --requests <n>               measured requests (default 30000)\n"
        "  --seed <n>                   simulation seed (default 42)\n"
        "  --prefill-overwrite <frac>   random-overwrite fraction of the\n"
        "                               working set before measuring (0.2)\n"
        "  --qd <n>                     closed loop: keep n requests in\n"
        "                               flight through the bounded host\n"
        "                               queue (default: native pacing)\n"
        "sweep:\n"
        "  --seeds <n>                  run seeds seed..seed+n-1 and report\n"
        "                               mean IOPS, merged percentiles and\n"
        "                               summed FTL counters (default 1)\n"
        "  --jobs <n>                   sweep worker threads (default 1 or\n"
        "                               CUBESSD_JOBS); output is bit-\n"
        "                               identical for any job count\n"
        "multi-tenant:\n"
        "  --tenants <list>             comma-separated tenant specs\n"
        "                               <name>:<workload>[:<key>=<val>]*,\n"
        "                               keys w= (WRR weight), slo= (e.g.\n"
        "                               500us), rate= (arrivals/s),\n"
        "                               arrival= (poisson|bursty), burst=,\n"
        "                               ns= (namespace fraction), trace=\n"
        "  --tenant <spec>              add one tenant (repeatable)\n"
        "  --open-loop                  independent arrival processes\n"
        "                               instead of fixed in-flight counts\n"
        "  --load <frac>                open-loop load as a fraction of the\n"
        "                               calibrated closed-loop capacity\n"
        "  --arb-burst <n>              WRR commands per weight unit per\n"
        "                               visit (default 4); --qd sets the\n"
        "                               shared window (default 64)\n"
        "fault injection:\n"
        "  --fault-program <p>          per-WL program-failure probability\n"
        "  --fault-erase <p>            per-block erase-failure probability\n"
        "  --fault-read-limit <norm>    normalized-BER ceiling of a\n"
        "                               correctable read (0 = unlimited)\n"
        "  --fault-wear-scale <x>       P/E amplification of the fault\n"
        "                               probabilities (default 6)\n"
        "outputs:\n"
        "  --metrics-out <file>         write the run as one JSON document\n"
        "                               (sections per mode: see README)\n"
        "  --trace-out <file>           record a Perfetto-loadable trace\n"
        "  --trace-buffer <events>      trace ring-buffer capacity (default\n"
        "                               262144, oldest dropped; not with\n"
        "                               --seeds)\n"
        "  --sample-interval-us <n>     counter sampling period (default\n"
        "                               1000 while tracing, else off)\n"
        "  --list-counters              print the sampled counters, exit\n"
        "  --profile                    attribute host wall-clock time to\n"
        "                               simulator hot-path slots; results\n"
        "                               are bit-identical with it on or off\n"
        "  --profile-out <file>         also write the profile as JSON\n"
        "  --verbose                    print per-chip statistics\n"
        "  --help                       this text\n";
}

ssd::FtlKind
parseFtl(const std::string &name)
{
    if (name == "page") return ssd::FtlKind::Page;
    if (name == "vert") return ssd::FtlKind::Vert;
    if (name == "cube") return ssd::FtlKind::Cube;
    if (name == "cube-") return ssd::FtlKind::CubeMinus;
    fatal("unknown FTL '%s' (page|vert|cube|cube-)", name.c_str());
}

/**
 * Look up a workload by name. `qd` > 0 replaces its native burst
 * pacing with a steady stream of `qd` in-flight requests through the
 * bounded host queue (closed-loop QD sweep).
 */
workload::WorkloadSpec
parseWorkload(const std::string &name, std::uint32_t qd)
{
    auto spec = workload::findWorkload(name);
    if (!spec)
        fatal("unknown workload '%s' (mail|web|proxy|oltp|rocks|mongo|"
              "readhot|writeheavy)", name.c_str());
    if (qd > 0) {
        spec->burstLength = 0;
        spec->queueDepth = qd;
    }
    return *spec;
}

/**
 * Parse the value of a numeric flag. The whole string must be a
 * finite, non-negative number in the range of T; anything else exits
 * with status 2 and a message naming the flag.
 */
template <typename T>
T
parseNumber(const std::string &flag, const char *text)
{
    T v{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v) && v >= 0.0;
    if (!ok) {
        std::cerr << "cubessd_sim: invalid value '" << text << "' for "
                  << flag << " (expected a non-negative "
                  << (std::is_floating_point_v<T> ? "finite number)\n"
                                                  : "integer in range)\n");
        std::exit(2);
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::optional<std::uint64_t> sampleIntervalUs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        auto number = [&]<typename T>(T &out) {
            out = parseNumber<T>(arg, value());
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (arg == "--ftl") {
            opt.ftl = value();
        } else if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--pe") {
            number(opt.pe);
        } else if (arg == "--retention") {
            number(opt.retentionMonths);
        } else if (arg == "--blocks") {
            number(opt.blocks);
        } else if (arg == "--requests") {
            number(opt.requests);
        } else if (arg == "--seed") {
            number(opt.seed);
        } else if (arg == "--seeds") {
            number(opt.seedCount);
        } else if (arg == "--jobs") {
            number(opt.jobs);
        } else if (arg == "--prefill-overwrite") {
            number(opt.prefillOverwrite);
        } else if (arg == "--qd") {
            number(opt.qd);
        } else if (arg == "--tenants") {
            if (const std::string err =
                    workload::parseTenantList(value(), &opt.tenants);
                !err.empty())
                fatal("%s", err.c_str());
        } else if (arg == "--tenant") {
            workload::TenantSpec spec;
            if (const std::string err =
                    workload::parseTenantSpec(value(), &spec);
                !err.empty())
                fatal("%s", err.c_str());
            opt.tenants.push_back(std::move(spec));
        } else if (arg == "--open-loop") {
            opt.openLoop = true;
        } else if (arg == "--load") {
            number(opt.load);
        } else if (arg == "--arb-burst") {
            number(opt.arbBurst);
        } else if (arg == "--metrics-out") {
            opt.metricsOut = value();
        } else if (arg == "--trace-out") {
            opt.traceOut = value();
        } else if (arg == "--trace-buffer") {
            number(opt.traceBuffer.emplace());
        } else if (arg == "--sample-interval-us") {
            number(sampleIntervalUs.emplace());
        } else if (arg == "--list-counters") {
            opt.listCounters = true;
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg == "--profile-out") {
            opt.profileOut = value();
            opt.profile = true;
        } else if (arg == "--fault-program") {
            number(opt.faults.programFailBase);
            opt.faults.enabled = true;
        } else if (arg == "--fault-erase") {
            number(opt.faults.eraseFailBase);
            opt.faults.enabled = true;
        } else if (arg == "--fault-read-limit") {
            number(opt.faults.uncorrectableNormLimit);
            opt.faults.enabled = true;
        } else if (arg == "--fault-wear-scale") {
            number(opt.faults.wearScale);
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    opt.sampleIntervalUs =
        sampleIntervalUs.value_or(opt.traceOut.empty() ? 0 : 1000);
    return opt;
}

/** Print the "device: ..." line and, for single-workload modes, the
 *  "workload: ..." line. */
void
printBanner(const Options &opt, const ssd::SsdConfig &config,
            const workload::WorkloadSpec *spec)
{
    std::cout << "device: " << config.totalChips() << " chips x "
              << opt.blocks << " blocks ("
              << config.logicalPages() *
                     config.chip.geometry.pageSizeBytes / kGiB
              << " GiB logical), FTL " << ssd::ftlKindName(config.ftl)
              << '\n';
    if (spec != nullptr)
        std::cout << "workload: " << spec->name << " @ " << opt.pe
                  << " P/E + " << opt.retentionMonths
                  << " months retention\n";
}

/** The latency-percentile and FTL rows of the single-run and sweep
 *  summary tables. */
void
addLatencyAndFtlRows(metrics::Table &table, const LatencyRecorder &readUs,
                     const LatencyRecorder &writeUs,
                     const ftl::FtlStats &stats)
{
    for (const double p : {50.0, 90.0, 99.0}) {
        table.row({"write p" + metrics::format(p, 0) + " (ms)",
                   metrics::format(writeUs.percentile(p) / 1000.0, 3)});
        table.row({"read p" + metrics::format(p, 0) + " (ms)",
                   metrics::format(readUs.percentile(p) / 1000.0, 3)});
    }
    table.row({"write amplification",
               metrics::format(stats.writeAmplification(), 2)});
    table.row({"avg program latency (us)",
               metrics::format(stats.avgProgramLatencyUs(), 1)});
    table.row({"leader / follower programs",
               std::to_string(stats.leaderPrograms) + " / " +
                   std::to_string(stats.followerPrograms)});
    table.row({"read retries", std::to_string(stats.readRetries)});
}

/** Write a profile as a standalone {"profile": {...}} sidecar. */
void
writeProfileSidecar(const std::string &path,
                    const prof::ProfileData &data, double wallNs)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open profile file '%s'", path.c_str());
    metrics::JsonWriter w(out);
    w.beginObject();
    w.key("profile");
    prof::writeJson(w, data, wallNs);
    w.endObject();
    out << '\n';
    std::cout << "profile written to " << path << '\n';
}

/** Per-worker load telemetry of a sweep, on stderr: wall times are
 *  machine noise, and a sweep's stdout is identical for any --jobs. */
void
reportWorkerTelemetry(const sim::SweepTelemetry &t)
{
    std::cerr << "sweep telemetry: wall "
              << metrics::format(t.wallS, 3) << " s, " << t.workers.size()
              << " worker" << (t.workers.size() == 1 ? "" : "s")
              << ", load imbalance "
              << metrics::format(t.imbalance(), 2) << "x\n";
    for (std::size_t i = 0; i < t.workers.size(); ++i) {
        const auto &w = t.workers[i];
        std::cerr << "  worker " << i << ": " << w.jobs << " cells ("
                  << w.steals << " stolen), busy "
                  << metrics::format(w.busyS, 3) << " s, idle "
                  << metrics::format(w.idleS, 3) << " s\n";
    }
}

/** The outcome of one measured run: the `run` object of a metrics
 *  document, or one entry of a sweep's `cells` array. */
struct RunSummary
{
    std::optional<std::uint64_t> seed{};    ///< sweep cells only
    double iops = 0.0;
    SimTime elapsed = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    bool readOnly = false;
    std::optional<double> calibratedIops{}; ///< multi-tenant only
};

/**
 * The sections of a metrics document. Every mode carries the FTL
 * stats (written as the "ftl" and "failures" objects) and the GC
 * stats; writeMetrics() leaves the other null sections out.
 */
struct MetricsDocument
{
    const RunSummary *run = nullptr;
    const std::vector<RunSummary> *cells = nullptr;
    const workload::MultiTenantResult *tenants = nullptr;
    const metrics::RequestMetrics *requests = nullptr;
    const metrics::Utilization *utilization = nullptr;
    const ftl::FtlStats *ftl = nullptr;
    std::uint64_t bufferPeakPages = 0;
    const ftl::GcStats *gc = nullptr;
    const trace::CounterRegistry *timeseries = nullptr;
    const prof::ProfileData *profile = nullptr;
    double profileWallNs = 0.0;
};

/** The run configuration: the keys every mode shares, then the
 *  sweep's and the multi-tenant mode's own. */
void
writeConfig(metrics::JsonWriter &w, const Options &opt,
            const ssd::SsdConfig &config)
{
    w.beginObject();
    w.field("ftl", opt.ftl);
    if (opt.tenants.empty())
        w.field("workload", opt.workload);
    w.field("pe_cycles", static_cast<std::uint64_t>(opt.pe));
    w.field("retention_months", opt.retentionMonths);
    w.field("blocks_per_chip", static_cast<std::uint64_t>(opt.blocks));
    w.field("requests", opt.requests);
    w.field("seed", opt.seed);
    w.field("queue_depth",
            static_cast<std::uint64_t>(config.hostQueueDepth));
    w.key("faults");
    w.beginObject();
    w.field("enabled", opt.faults.enabled);
    w.field("program_fail_base", opt.faults.programFailBase);
    w.field("erase_fail_base", opt.faults.eraseFailBase);
    w.field("uncorrectable_norm_limit",
            opt.faults.uncorrectableNormLimit);
    w.field("wear_scale", opt.faults.wearScale);
    w.endObject();
    // The job count is deliberately not recorded: a sweep's document
    // must be byte-identical for any --jobs value.
    if (opt.seedCount > 1)
        w.field("seeds", opt.seedCount);
    if (!opt.tenants.empty()) {
        w.field("open_loop", opt.openLoop);
        w.field("load", opt.load);
        w.field("arb_burst", static_cast<std::uint64_t>(opt.arbBurst));
        w.field("window",
                static_cast<std::uint64_t>(opt.qd > 0 ? opt.qd : 64));
    }
    w.endObject();
}

void
writeRun(metrics::JsonWriter &w, const RunSummary &r)
{
    w.beginObject();
    if (r.seed)
        w.field("seed", *r.seed);
    w.field("iops", r.iops);
    w.field("elapsed_s", toSeconds(r.elapsed));
    w.field("completed", r.completed);
    w.field("failed", r.failed);
    w.field("read_only", r.readOnly);
    if (r.calibratedIops)
        w.field("calibrated_iops", *r.calibratedIops);
    w.endObject();
}

/** One object per tenant: latency percentiles, SLO accounting,
 *  arbitration counters and the full request metrics. */
void
writeTenants(metrics::JsonWriter &w, const Options &opt,
             const workload::MultiTenantResult &result)
{
    w.beginArray();
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const auto &t = result.tenants[i];
        const auto &spec = opt.tenants[i];
        w.beginObject();
        w.field("name", t.name);
        w.field("workload", spec.workload.name.empty()
                                ? std::string("trace")
                                : spec.workload.name);
        w.field("weight", static_cast<std::uint64_t>(t.weight));
        w.field("arrival",
                std::string(workload::arrivalKindName(spec.arrival)));
        w.field("slo_target_ns",
                static_cast<std::uint64_t>(t.sloTarget));
        w.field("offered_rate", t.offeredRate);
        w.field("submitted", t.submitted);
        w.field("completed", t.completed);
        w.field("iops", t.iops);
        w.field("slo_violations", t.sloViolations);
        w.field("slo_violation_fraction", t.sloViolationFraction());
        for (const auto type :
             {ssd::IoType::Read, ssd::IoType::Write}) {
            const auto &h = t.metrics.latency(type);
            const std::string prefix =
                type == ssd::IoType::Read ? "read" : "write";
            w.field(prefix + "_p50_us", h.percentile(50.0) / 1000.0);
            w.field(prefix + "_p99_us", h.percentile(99.0) / 1000.0);
            w.field(prefix + "_p999_us", h.percentile(99.9) / 1000.0);
        }
        w.key("arbitration");
        w.beginObject();
        w.field("submitted", t.arbitration.submitted);
        w.field("dispatched", t.arbitration.dispatched);
        w.field("completed", t.arbitration.completed);
        w.field("max_backlog", t.arbitration.maxBacklog);
        w.endObject();
        w.key("requests");
        metrics::writeRequestMetrics(w, t.metrics);
        w.endObject();
    }
    w.endArray();
}

/**
 * Write the metrics document of any mode: the configuration, then
 * every section `doc` carries. A sweep calls this once, from the main
 * thread, after the deterministic merge — never from sweep workers.
 */
void
writeMetrics(const std::string &path, const Options &opt,
             const ssd::SsdConfig &config, const MetricsDocument &doc)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open metrics file '%s'", path.c_str());

    metrics::JsonWriter w(out);
    w.beginObject();
    w.key("config");
    writeConfig(w, opt, config);
    if (doc.run != nullptr) {
        w.key("run");
        writeRun(w, *doc.run);
    }
    if (doc.cells != nullptr) {
        w.key("cells");
        w.beginArray();
        for (const auto &cell : *doc.cells)
            writeRun(w, cell);
        w.endArray();
    }
    if (doc.tenants != nullptr) {
        w.key("tenants");
        writeTenants(w, opt, *doc.tenants);
    }
    if (doc.requests != nullptr) {
        w.key("requests");
        metrics::writeRequestMetrics(w, *doc.requests);
    }
    if (doc.utilization != nullptr) {
        w.key("utilization");
        metrics::writeUtilization(w, *doc.utilization);
    }
    w.key("ftl");
    metrics::writeFtlStats(w, *doc.ftl, doc.bufferPeakPages);
    w.key("failures");
    metrics::writeFailureStats(w, *doc.ftl);
    w.key("gc");
    metrics::writeGcStats(w, *doc.gc);
    if (doc.timeseries != nullptr) {
        w.key("timeseries");
        doc.timeseries->writeTimeseries(w);
    }
    if (doc.profile != nullptr) {
        w.key("profile");
        prof::writeJson(w, *doc.profile, doc.profileWallNs);
    }
    w.endObject();
    out << '\n';
    std::cout << "\nmetrics written to " << path << '\n';
}

/**
 * The instrumented run of single-run and multi-tenant mode: the trace
 * session and counter sampler cover the measured window only (not the
 * prefill), as do the profile snapshot-delta and the wall clock.
 */
class MeasuredRun
{
  public:
    template <typename Driver>
    auto
    run(const Options &opt, ssd::Ssd &dev, Driver &driver)
    {
        std::cout << "prefilling..." << std::flush;
        dev.setAging({opt.pe, 0.0});
        driver.prefill(opt.prefillOverwrite);
        dev.setAging({opt.pe, opt.retentionMonths});

        if (!opt.traceOut.empty()) {
            trace::TraceConfig traceConfig;
            if (opt.traceBuffer)
                traceConfig.capacityEvents = *opt.traceBuffer;
            trace_ = std::make_unique<trace::TraceSession>(traceConfig);
            dev.attachTrace(trace_.get());
        }
        if (opt.sampleIntervalUs > 0) {
            counters_ = std::make_unique<trace::CounterRegistry>();
            dev.registerCounters(*counters_);
            if (opt.profile)
                prof::registerCounters(*counters_);
            counters_->attachTrace(trace_.get());
            counters_->installSampler(dev.queue(),
                                      opt.sampleIntervalUs * 1000);
        }

        std::cout << " done\nrunning " << opt.requests << " requests..."
                  << std::flush;
        // Snapshot-delta around the measured run only: the prefill's
        // cost is setup, not what --profile attributes.
        const prof::ProfileData before =
            opt.profile ? prof::snapshot() : prof::ProfileData{};
        const auto t0 = std::chrono::steady_clock::now();
        auto result = driver.run(opt.requests);
        wallNs_ = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        if (opt.profile)
            profile_ = prof::snapshot().since(before);
        std::cout << " done\n\n";
        return result;
    }

    /** Print the profile; write the metrics document (completing
     *  `doc` from the device), the profile sidecar and the trace. */
    void
    finish(const Options &opt, ssd::Ssd &dev, MetricsDocument doc)
    {
        if (opt.profile) {
            std::cout << '\n';
            prof::report(std::cout, profile_, wallNs_);
        }
        if (!opt.metricsOut.empty()) {
            doc.ftl = &dev.ftl().stats();
            doc.bufferPeakPages = dev.ftl().buffer().peakSize();
            doc.gc = &dev.ftl().gcStats();
            doc.timeseries = counters_.get();
            doc.profile = opt.profile ? &profile_ : nullptr;
            doc.profileWallNs = wallNs_;
            writeMetrics(opt.metricsOut, opt, dev.config(), doc);
        }
        if (!opt.profileOut.empty())
            writeProfileSidecar(opt.profileOut, profile_, wallNs_);
        if (trace_) {
            std::ofstream traceFile(opt.traceOut);
            if (!traceFile)
                fatal("cannot open trace file '%s'", opt.traceOut.c_str());
            trace_->writeJson(traceFile);
            std::cout << "\ntrace written to " << opt.traceOut << " ("
                      << trace_->recorded() << " events recorded, "
                      << trace_->dropped() << " dropped)\n";
        }
        dev.ftl().checkConsistency();
    }

  private:
    std::unique_ptr<trace::TraceSession> trace_;
    std::unique_ptr<trace::CounterRegistry> counters_;
    prof::ProfileData profile_;
    double wallNs_ = 0.0;
};

/**
 * Multi-tenant mode: N tenant streams through per-tenant submission
 * queues and the WRR arbiter, closed- or open-loop, with per-tenant
 * latency percentiles and SLO accounting.
 */
int
runMultiTenant(const Options &opt, const ssd::SsdConfig &config)
{
    ssd::Ssd dev(config);

    printBanner(opt, config, nullptr);
    std::cout << "tenants:";
    for (const auto &spec : opt.tenants) {
        std::cout << ' ' << spec.name << "("
                  << (spec.workload.name.empty() ? "trace"
                                                 : spec.workload.name)
                  << ",w=" << spec.weight << ')';
    }
    std::cout << "\npacing: "
              << (opt.openLoop ? "open loop" : "closed loop");
    if (opt.openLoop && opt.load > 0.0)
        std::cout << " @ load " << opt.load;
    std::cout << '\n';

    workload::MultiTenantDriver driver(
        dev, opt.tenants,
        {.openLoop = opt.openLoop, .load = opt.load,
         .window = opt.qd > 0 ? opt.qd : 64, .arbBurst = opt.arbBurst});

    MeasuredRun measured;
    const auto result = measured.run(opt, dev, driver);

    metrics::Table summary({"metric", "value"});
    summary.row({"aggregate IOPS", metrics::format(result.iops, 0)});
    summary.row({"simulated time",
                 metrics::format(toSeconds(result.elapsed), 3) + " s"});
    if (result.calibratedIops > 0.0)
        summary.row({"calibrated capacity (IOPS)",
                     metrics::format(result.calibratedIops, 0)});
    summary.row({"completed requests",
                 std::to_string(result.completed)});
    summary.print(std::cout);

    std::cout << "\nper-tenant results:\n";
    metrics::Table table({"tenant", "weight", "iops", "rd p50 (us)",
                          "rd p99 (us)", "rd p99.9 (us)", "wr p99 (us)",
                          "slo", "violations"});
    std::uint64_t failed = 0;
    for (const auto &t : result.tenants) {
        const auto &statuses = t.metrics.statusCounts();
        failed = std::accumulate(statuses.begin() + 1, statuses.end(),
                                 failed);
        const auto &read = t.metrics.latency(ssd::IoType::Read);
        const auto &write = t.metrics.latency(ssd::IoType::Write);
        std::string slo = "-", violations = "-";
        if (t.sloTarget > 0) {
            slo = metrics::format(
                      static_cast<double>(t.sloTarget) / 1000.0, 0) +
                  " us";
            violations =
                std::to_string(t.sloViolations) + " (" +
                metrics::format(t.sloViolationFraction() * 100.0, 2) +
                "%)";
        }
        table.row({t.name, std::to_string(t.weight),
                   metrics::format(t.iops, 0),
                   metrics::format(read.percentile(50.0) / 1000.0, 1),
                   metrics::format(read.percentile(99.0) / 1000.0, 1),
                   metrics::format(read.percentile(99.9) / 1000.0, 1),
                   metrics::format(write.percentile(99.0) / 1000.0, 1),
                   slo, violations});
    }
    table.print(std::cout);

    std::cout << "\narbitration:\n";
    metrics::Table arb({"tenant", "submitted", "dispatched",
                        "max backlog"});
    for (const auto &t : result.tenants) {
        arb.row({t.name, std::to_string(t.arbitration.submitted),
                 std::to_string(t.arbitration.dispatched),
                 std::to_string(t.arbitration.maxBacklog)});
    }
    arb.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(dev.ftl().gcStats()).print(std::cout);

    const RunSummary run{.iops = result.iops, .elapsed = result.elapsed,
                         .completed = result.completed, .failed = failed,
                         .readOnly = dev.ftl().readOnly(),
                         .calibratedIops = result.calibratedIops};
    measured.finish(opt, dev, {.run = &run, .tenants = &result,
                               .utilization = &result.utilization});
    return 0;
}

/**
 * --seeds N mode: N independent cells of the same configuration at
 * consecutive seeds, farmed onto --jobs worker threads, merged
 * deterministically in seed order on the main thread.
 */
int
runSeedSweep(const Options &opt, const ssd::SsdConfig &config,
             const workload::WorkloadSpec &spec)
{
    const unsigned jobs = sim::resolveJobs(opt.jobs, "CUBESSD_JOBS");

    std::vector<workload::SweepCell> cells(
        opt.seedCount, {.config = config, .spec = spec,
                        .aging = {opt.pe, opt.retentionMonths},
                        .requests = opt.requests,
                        .prefillOverwrite = opt.prefillOverwrite});
    for (std::uint64_t s = 0; s < opt.seedCount; ++s)
        cells[s].config.seed = opt.seed + s;
    const workload::SweepTrace trace{.out = opt.traceOut,
                                     .sampleIntervalUs = opt.sampleIntervalUs,
                                     .cell = 0};

    // SweepRunner starts no more threads than there are cells.
    const auto workers = std::min<std::uint64_t>(jobs, opt.seedCount);
    printBanner(opt, config, &spec);
    std::cout << "sweep: " << opt.seedCount << " seeds (" << opt.seed
              << ".." << opt.seed + opt.seedCount - 1 << "), " << workers
              << " worker" << (workers == 1 ? "" : "s") << "\nrunning "
              << opt.seedCount << " x " << opt.requests
              << " requests..." << std::flush;

    sim::SweepTelemetry telemetry;
    const auto results =
        workload::runCells(cells, jobs, trace, &telemetry);
    std::cout << " done\n\n";

    // Deterministic merge, strictly in seed (cell) order.
    double iopsSum = 0.0;
    double iopsMin = results.front().run.iops, iopsMax = iopsMin;
    std::uint64_t completed = 0, failed = 0, bufferPeakPages = 0;
    LatencyRecorder readUs, writeUs;
    metrics::RequestMetrics requests;
    ftl::FtlStats ftlStats;
    ftl::GcStats gcStats;
    bool anyReadOnly = false;
    std::vector<RunSummary> summaries;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        summaries.push_back({.seed = cells[i].config.seed,
                             .iops = r.run.iops, .elapsed = r.run.elapsed,
                             .completed = r.run.completedRequests,
                             .failed = r.run.failedRequests(),
                             .readOnly = r.readOnly});
        iopsSum += r.run.iops;
        iopsMin = std::min(iopsMin, r.run.iops);
        iopsMax = std::max(iopsMax, r.run.iops);
        completed += r.run.completedRequests;
        failed += r.run.failedRequests();
        bufferPeakPages = std::max(bufferPeakPages, r.bufferPeakPages);
        readUs.merge(r.run.readLatencyUs);
        writeUs.merge(r.run.writeLatencyUs);
        requests.merge(r.run.requestMetrics);
        ftlStats.merge(r.ftl);
        gcStats.merge(r.gc);
        anyReadOnly = anyReadOnly || r.readOnly;
    }
    const double iopsMean =
        iopsSum / static_cast<double>(results.size());

    metrics::Table table({"metric", "value"});
    table.row({"mean IOPS", metrics::format(iopsMean, 0)});
    table.row({"IOPS range", metrics::format(iopsMin, 0) + " - " +
                                 metrics::format(iopsMax, 0)});
    table.row({"completed requests", std::to_string(completed)});
    if (failed > 0 || opt.faults.enabled)
        table.row({"failed requests", std::to_string(failed)});
    addLatencyAndFtlRows(table, readUs, writeUs, ftlStats);
    if (opt.faults.enabled)
        table.row({"any seed read-only", anyReadOnly ? "yes" : "no"});
    table.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(gcStats).print(std::cout);

    if (opt.profile) {
        // "% wall" is computed against the workers' aggregate CPU
        // seconds, not the run's wall clock: with --jobs N the slots
        // accumulate across N threads at once, and only the aggregate
        // makes the coverage fraction meaningful.
        const prof::ProfileData profData =
            workload::mergeCellProfiles(results);
        double busySumNs = 0.0;
        for (const auto &w : telemetry.workers)
            busySumNs += w.busyS * 1e9;
        std::cout << '\n';
        prof::report(std::cout, profData, busySumNs);
        if (!opt.profileOut.empty())
            writeProfileSidecar(opt.profileOut, profData, busySumNs);
        reportWorkerTelemetry(telemetry);
    }

    // The profile stays out of the document: its wall times would
    // break the document's byte-identity across --jobs values.
    if (!opt.metricsOut.empty())
        writeMetrics(opt.metricsOut, opt, config,
                     {.cells = &summaries, .requests = &requests,
                      .ftl = &ftlStats, .bufferPeakPages = bufferPeakPages,
                      .gc = &gcStats});
    return 0;
}

/** Single-run mode: one workload on one device. */
int
runSingle(const Options &opt, const ssd::SsdConfig &config)
{
    ssd::Ssd dev(config);
    const auto spec = parseWorkload(opt.workload, opt.qd);
    printBanner(opt, config, &spec);

    workload::WorkloadGenerator gen(spec, dev.logicalPages(),
                                    opt.seed + 7);
    workload::Driver driver(dev, gen);
    MeasuredRun measured;
    const auto result = measured.run(opt, dev, driver);

    metrics::Table table({"metric", "value"});
    table.row({"IOPS", metrics::format(result.iops, 0)});
    table.row({"simulated time",
               metrics::format(toSeconds(result.elapsed), 3) + " s"});
    const auto &stats = dev.ftl().stats();
    addLatencyAndFtlRows(table, result.readLatencyUs,
                         result.writeLatencyUs, stats);
    table.row({"safety re-programs",
               std::to_string(stats.safetyReprograms)});
    if (opt.faults.enabled) {
        table.row({"failed requests",
                   std::to_string(result.failedRequests())});
        table.row({"retired blocks",
                   std::to_string(stats.retiredBlocks)});
        table.row({"bad-block relocations",
                   std::to_string(stats.badBlockRelocations)});
        table.row({"flush replays", std::to_string(stats.flushReplays)});
        table.row({"uncorrectable reads",
                   std::to_string(stats.uncorrectableReads)});
        table.row({"read-only mode",
                   dev.ftl().readOnly() ? "yes" : "no"});
    }
    if (opt.qd > 0) {
        const double meanLatencyUs =
            (result.readLatencyUs.mean() * result.readLatencyUs.count() +
             result.writeLatencyUs.mean() *
                 result.writeLatencyUs.count()) /
            static_cast<double>(result.readLatencyUs.count() +
                                result.writeLatencyUs.count());
        table.row({"host queue depth", std::to_string(opt.qd)});
        table.row({"mean latency (ms)",
                   metrics::format(meanLatencyUs / 1000.0, 3)});
        table.row({"mean queue wait (ms)",
                   metrics::format(result.queueWaitUs.mean() / 1000.0,
                                   3)});
    }
    table.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(dev.ftl().gcStats()).print(std::cout);

    if (config.ftl == ssd::FtlKind::Cube ||
        config.ftl == ssd::FtlKind::CubeMinus) {
        const auto &cube = static_cast<ftl::CubeFtl &>(dev.ftl());
        std::cout << "\ncubeFTL: " << cube.cubeStats().followerWithParams
                  << " followers with leader params, "
                  << cube.cubeStats().ortGuidedReads
                  << " ORT-guided reads, ORT size " << cube.ort().bytes()
                  << " B\n";
        if (cube.ort().hits() + cube.ort().misses() > 0) {
            std::cout << "\nORT hits by h-layer:\n";
            metrics::ortLayerTable(cube.ort()).print(std::cout);
        }
        std::uint64_t vfyDone = 0, vfySkipped = 0, vfySavedNs = 0;
        for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
            vfyDone += dev.chip(i).stats().verifiesDone;
            vfySkipped += dev.chip(i).stats().verifiesSkipped;
            vfySavedNs += dev.chip(i).vfyTimeSaved();
        }
        std::cout << "\nVFY-skip savings:\n";
        metrics::vfySavingsTable(vfyDone, vfySkipped, vfySavedNs)
            .print(std::cout);
    }

    if (opt.verbose) {
        std::cout << "\nper-chip statistics:\n";
        metrics::Table chips({"chip", "programs", "reads", "erases",
                              "retries"});
        for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
            const auto &cs = dev.chip(i).stats();
            chips.row({std::to_string(i),
                       std::to_string(cs.wlPrograms),
                       std::to_string(cs.pageReads),
                       std::to_string(cs.erases),
                       std::to_string(cs.readRetries)});
        }
        chips.print(std::cout);
    }

    const RunSummary run{.iops = result.iops, .elapsed = result.elapsed,
                         .completed = result.completedRequests,
                         .failed = result.failedRequests(),
                         .readOnly = dev.ftl().readOnly()};
    measured.finish(opt, dev, {.run = &run,
                               .requests = &result.requestMetrics,
                               .utilization = &result.utilization});
    return 0;
}

/** Print the sampled counters of this configuration's device. */
int
listCounters(const ssd::SsdConfig &config)
{
    ssd::Ssd dev(config);
    trace::CounterRegistry registry;
    dev.registerCounters(registry);
    metrics::Table counters({"counter", "unit"});
    for (std::size_t i = 0; i < registry.size(); ++i)
        counters.row({registry.name(i), registry.unit(i)});
    counters.print(std::cout);
    return 0;
}

/** Fail with status 2 and `message` on stderr. */
int
reject(const std::string &message)
{
    std::cerr << "cubessd_sim: " << message << '\n';
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (opt.profile) {
        if (!prof::compiledIn()) {
            std::cerr << "cubessd_sim: warning: this binary was built "
                         "with CUBESSD_PROFILING=OFF; --profile will "
                         "report no slots\n";
        }
        // Enabled before any Ssd or worker thread exists, so every
        // thread observes the flag at creation.
        prof::setEnabled(true);
    }

    ssd::SsdConfig config;
    config.chip.geometry.blocksPerChip = opt.blocks;
    config.chip.faults = opt.faults;
    config.ftl = parseFtl(opt.ftl);
    config.seed = opt.seed;
    // In multi-tenant mode the WRR arbiter owns the in-flight window
    // (--qd sizes it); the host queue underneath stays unbounded.
    config.hostQueueDepth = opt.tenants.empty() ? opt.qd : 0;
    if (const std::string err = config.validate(); !err.empty())
        return reject("invalid configuration: " + err);
    if (opt.listCounters)
        return listCounters(config);

    if (!opt.tenants.empty()) {
        if (const std::string err =
                workload::validateTenants(opt.tenants);
            !err.empty())
            return reject("invalid tenants: " + err);
        if (opt.seedCount > 1)
            return reject("--seeds is not supported in multi-tenant mode");
        if (opt.arbBurst == 0)
            return reject("--arb-burst must be at least 1");
        for (const auto &spec : opt.tenants)
            if (opt.openLoop && opt.load <= 0.0 && spec.rate == 0.0)
                return reject("--open-loop needs --load or an explicit "
                              "rate= for every tenant (tenant '" +
                              spec.name + "' has neither)");
        if (!opt.openLoop && opt.load > 0.0)
            return reject("--load requires --open-loop");
        return runMultiTenant(opt, config);
    }

    if (opt.seedCount > 1) {
        // A sweep traces one cell at the ring buffer's default size.
        if (opt.traceBuffer)
            return reject("--trace-buffer is not supported with --seeds");
        try {
            return runSeedSweep(opt, config,
                                parseWorkload(opt.workload, opt.qd));
        } catch (const std::exception &e) {
            // A failing cell surfaces here (annotated with its
            // configuration) after the other cells finish; nothing
            // has been written to --metrics-out at this point.
            std::cerr << "cubessd_sim: " << e.what() << '\n';
            return 1;
        }
    }
    return runSingle(opt, config);
}
