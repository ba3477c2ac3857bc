#include "src/metrics/json.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "src/common/logging.h"
#include "src/ftl/ftl_stats.h"
#include "src/ftl/gc.h"

namespace cubessd::metrics {

JsonWriter::JsonWriter(std::ostream &out)
    : out_(out)
{
}

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;  // value completes the "key": prefix, no comma
    }
    if (!scopeItems_.empty()) {
        if (scopeItems_.back() > 0)
            out_ << ',';
        ++scopeItems_.back();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ << '{';
    scopeItems_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (scopeItems_.empty())
        fatal("JsonWriter: endObject with no open scope");
    scopeItems_.pop_back();
    out_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ << '[';
    scopeItems_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (scopeItems_.empty())
        fatal("JsonWriter: endArray with no open scope");
    scopeItems_.pop_back();
    out_ << ']';
    return *this;
}

namespace {

void
writeEscaped(std::ostream &out, const std::string &s)
{
    out << '"';
    for (const char c : s) {
        switch (c) {
          case '"':  out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\t': out << "\\t"; break;
          case '\r': out << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

}  // namespace

JsonWriter &
JsonWriter::key(const std::string &name)
{
    if (pendingKey_)
        fatal("JsonWriter: key('%s') after a dangling key",
              name.c_str());
    separate();
    writeEscaped(out_, name);
    out_ << ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    writeEscaped(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    return value(v, 6);
}

JsonWriter &
JsonWriter::value(double v, int sigDigits)
{
    separate();
    if (!std::isfinite(v)) {
        out_ << "null";  // JSON has no NaN/Inf
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", sigDigits, v);
    // snprintf honors LC_NUMERIC; a non-C locale's ',' decimal
    // separator would be invalid JSON.
    for (char *p = buf; *p != '\0'; ++p) {
        if (*p == ',')
            *p = '.';
    }
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ << (v ? "true" : "false");
    return *this;
}

// ---------------------------------------------------------------------
// Observability schema helpers
// ---------------------------------------------------------------------

namespace {

double
toUs(double ns)
{
    return ns / 1000.0;
}

}  // namespace

void
writeLatencySummaryUs(JsonWriter &w, const LatencyHistogram &h)
{
    w.beginObject();
    w.field("count", h.total());
    w.field("mean_us", toUs(h.mean()));
    w.field("min_us", toUs(static_cast<double>(h.min())));
    w.field("p50_us", toUs(h.percentile(50.0)));
    w.field("p95_us", toUs(h.percentile(95.0)));
    w.field("p99_us", toUs(h.percentile(99.0)));
    w.field("p999_us", toUs(h.percentile(99.9)));
    w.field("max_us", toUs(static_cast<double>(h.max())));
    w.endObject();
}

void
writePhasesUs(JsonWriter &w, const PhaseHistograms &p)
{
    w.beginObject();
    w.key("queueWait");
    writeLatencySummaryUs(w, p.queueWait);
    w.key("buffer");
    writeLatencySummaryUs(w, p.buffer);
    w.key("bus");
    writeLatencySummaryUs(w, p.bus);
    w.key("die");
    writeLatencySummaryUs(w, p.die);
    w.key("retry");
    writeLatencySummaryUs(w, p.retry);
    w.endObject();
}

void
writeRequestMetrics(JsonWriter &w, const RequestMetrics &m)
{
    w.beginObject();
    for (const auto type : {ssd::IoType::Read, ssd::IoType::Write}) {
        w.key(type == ssd::IoType::Read ? "read" : "write");
        w.beginObject();
        w.key("latency");
        writeLatencySummaryUs(w, m.latency(type));
        w.key("phases");
        writePhasesUs(w, m.phases(type));
        w.endObject();
    }
    w.key("status");
    w.beginObject();
    const auto &counts = m.statusCounts();
    for (std::size_t s = 0; s < counts.size(); ++s)
        w.field(ssd::statusName(static_cast<ssd::Status>(s)),
                counts[s]);
    w.endObject();
    w.endObject();
}

void
writeUtilization(JsonWriter &w, const Utilization &u)
{
    w.beginObject();
    w.field("window_us", toUs(static_cast<double>(u.window)));
    w.key("channel");
    w.beginArray();
    for (const double c : u.channel)
        w.value(c);
    w.endArray();
    w.field("channel_avg", u.averageChannel());
    w.key("die");
    w.beginArray();
    for (const double d : u.die)
        w.value(d);
    w.endArray();
    w.field("die_avg", u.averageDie());
    w.endObject();
}

void
writeFtlStats(JsonWriter &w, const ftl::FtlStats &s,
              std::uint64_t bufferPeakPages)
{
    w.beginObject();
    w.field("host_read_pages", s.hostReadPages);
    w.field("host_write_pages", s.hostWritePages);
    w.field("buffer_hits", s.bufferHits);
    w.field("nand_reads", s.nandReads);
    w.field("host_programs", s.hostPrograms);
    w.field("gc_programs", s.gcPrograms);
    w.field("leader_programs", s.leaderPrograms);
    w.field("follower_programs", s.followerPrograms);
    w.field("read_retries", s.readRetries);
    w.field("safety_reprograms", s.safetyReprograms);
    w.field("write_stalls", s.writeStalls);
    w.field("write_amplification", s.writeAmplification());
    w.field("avg_program_latency_us", s.avgProgramLatencyUs());
    w.field("buffer_peak_pages", bufferPeakPages);
    w.endObject();
}

void
writeFailureStats(JsonWriter &w, const ftl::FtlStats &s)
{
    w.beginObject();
    w.field("program_failures", s.programFailures);
    w.field("erase_failures", s.eraseFailures);
    w.field("retired_blocks", s.retiredBlocks);
    w.field("bad_block_relocations", s.badBlockRelocations);
    w.field("flush_replays", s.flushReplays);
    w.field("uncorrectable_reads", s.uncorrectableReads);
    w.field("read_only_rejects", s.readOnlyRejects);
    w.field("rejected_requests", s.rejectedRequests);
    w.endObject();
}

void
writeGcStats(JsonWriter &w, const ftl::GcStats &gc)
{
    w.beginObject();
    w.field("collections", gc.collections);
    w.field("relocated_pages", gc.relocatedPages);
    w.field("erases", gc.erases);
    w.field("scan_reads", gc.scanReads);
    w.field("programs", gc.programs);
    w.field("avg_program_latency_us", gc.avgProgramLatencyUs());
    w.endObject();
}

}  // namespace cubessd::metrics
