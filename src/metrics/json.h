/**
 * @file
 * Machine-readable metrics export.
 *
 * JsonWriter is a tiny streaming JSON emitter (no dependency, no DOM)
 * with automatic comma/nesting bookkeeping; the helpers below render
 * the observability types into the stable schema that cubessd_sim's
 * --metrics-out and the BENCH_*.json files share, so successive PRs
 * can diff percentiles rather than scalar means:
 *
 *   latency summary: {"count", "mean_us", "min_us", "p50_us",
 *                     "p95_us", "p99_us", "p999_us", "max_us"}
 *   phase block:     {"queueWait": <summary>, "buffer": ..., "bus": ...,
 *                     "die": ..., "retry": ...}
 *   utilization:     {"window_us", "channel": [..], "die": [..],
 *                     "channel_avg", "die_avg"}
 *   FTL, failure and GC counters: see writeFtlStats,
 *                     writeFailureStats and writeGcStats
 */

#ifndef CUBESSD_METRICS_JSON_H
#define CUBESSD_METRICS_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/metrics/request_metrics.h"

namespace cubessd::ftl {
struct FtlStats;
struct GcStats;
}  // namespace cubessd::ftl

namespace cubessd::metrics {

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member name; must be followed by a value or begin*(). */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    /** Doubles render with 6 significant digits; NaN and +/-Inf have
     *  no JSON spelling and serialize as `null`. */
    JsonWriter &value(double v);
    /** Double with explicit precision (e.g. 16 digits so trace
     *  timestamps survive the decimal round trip). */
    JsonWriter &value(double v, int sigDigits);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(bool v);
    /** Explicit JSON null. */
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

  private:
    void separate();

    std::ostream &out_;
    /** One entry per open scope: count of emitted items. */
    std::vector<std::uint64_t> scopeItems_;
    bool pendingKey_ = false;
};

/** Percentile summary of a histogram of nanoseconds, reported in us. */
void writeLatencySummaryUs(JsonWriter &w, const LatencyHistogram &h);

/** The five-phase decomposition as named latency summaries. */
void writePhasesUs(JsonWriter &w, const PhaseHistograms &p);

/** Per-IoType blocks ("read"/"write") of latency + phases. */
void writeRequestMetrics(JsonWriter &w, const RequestMetrics &m);

/** Channel/die busy fractions of one measurement window. */
void writeUtilization(JsonWriter &w, const Utilization &u);

/** FTL traffic counters, the leader/follower program split, read
 *  retries, write amplification and the write buffer's peak. */
void writeFtlStats(JsonWriter &w, const ftl::FtlStats &s,
                   std::uint64_t bufferPeakPages);

/** The failure-domain counters of FtlStats (fault injection). */
void writeFailureStats(JsonWriter &w, const ftl::FtlStats &s);

/** Garbage-collection counters. */
void writeGcStats(JsonWriter &w, const ftl::GcStats &gc);

}  // namespace cubessd::metrics

#endif  // CUBESSD_METRICS_JSON_H
