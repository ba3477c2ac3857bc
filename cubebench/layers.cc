#include "cubebench/layers.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/ftl/mapping.h"
#include "src/metrics/histogram.h"
#include "src/nand/chip.h"
#include "src/nand/term_cache.h"
#include "src/sim/event_queue.h"
#include "src/ssd/arbiter.h"
#include "src/ssd/ssd.h"

namespace cubebench {

using namespace cubessd;

namespace {

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Keeps a replay's result observable so the optimizer cannot drop it. */
volatile std::uint64_t g_sink = 0;

/**
 * Median host ns/op of `batch`: it runs `ops` operations per call and
 * is repeated in 7 slices of the budget, so one preempted slice cannot
 * move the figure.
 */
template <typename Batch>
double
timeBatches(double budgetS, std::uint64_t ops, Batch &&batch)
{
    constexpr int kSlices = 7;
    std::vector<double> perOp;
    const double sliceNs = budgetS * 1e9 / kSlices;
    for (int s = 0; s < kSlices; ++s) {
        std::uint64_t done = 0;
        const double t0 = nowNs();
        double t1 = t0;
        do {
            batch();
            done += ops;
            t1 = nowNs();
        } while (t1 - t0 < sliceNs);
        perOp.push_back((t1 - t0) / static_cast<double>(done));
    }
    std::sort(perOp.begin(), perOp.end());
    return perOp[kSlices / 2];
}

/** Self-sustaining event population: every dispatch schedules one new
 *  event, so the queue holds a fixed number pending. */
class Ticker final : public sim::EventHandler
{
  public:
    Ticker(sim::EventQueue &queue, SimTime horizon, std::uint64_t seed)
        : queue_(queue), horizon_(horizon), rng_(seed)
    {
    }
    void
    onEvent(sim::EventKind, const sim::EventPayload &) override
    {
        scheduleNext();
    }
    void
    scheduleNext()
    {
        queue_.schedule(1 + rng_.uniformInt(2 * horizon_),
                        sim::EventKind::DriverTick, this,
                        sim::EventPayload{});
    }

  private:
    sim::EventQueue &queue_;
    SimTime horizon_;
    Rng rng_;
};

double
replayEventQueue(const ReplayInputs &in, double budgetS)
{
    // As many events pending as the device keeps requests in flight,
    // spread so the queue sees the workload's event density: with P
    // pending and a mean delay of P gaps, one event fires per gap.
    constexpr int kPending = 64;
    sim::EventQueue queue;
    Ticker ticker(queue,
                  static_cast<SimTime>(std::max(1.0, in.eventGapNs)) *
                      kPending,
                  in.generatorSeed);
    for (int i = 0; i < kPending; ++i)
        ticker.scheduleNext();
    constexpr std::uint64_t kOps = 4096;
    return timeBatches(budgetS, kOps, [&] {
        for (std::uint64_t i = 0; i < kOps; ++i)
            queue.step();
    });
}

double
replayMapping(const ReplayInputs &in, double budgetS)
{
    ftl::MappingTable table(in.config.logicalPages());
    Ppa next = 0;
    std::uint64_t version = 0;
    const auto &reqs = in.requests;
    return timeBatches(budgetS, reqs.size(), [&] {
        for (const auto &r : reqs) {
            if (r.type == ssd::IoType::Read) {
                if (auto ppa = table.lookup(r.lba))
                    g_sink = g_sink + *ppa;
            } else {
                table.map(r.lba, next++, ++version);
            }
        }
    });
}

double
replayFlatMap(const ReplayInputs &in, double budgetS)
{
    // The FTL's in-flight write index: writes insert, reads probe, and
    // the oldest write leaves once a buffer's worth is outstanding.
    FlatMap64<std::uint64_t> map;
    std::vector<Lba> fifo(in.config.writeBufferPages, 0);
    std::size_t head = 0;
    std::size_t live = 0;
    const auto &reqs = in.requests;
    return timeBatches(budgetS, reqs.size(), [&] {
        for (const auto &r : reqs) {
            if (r.type == ssd::IoType::Read) {
                if (const auto *v = map.find(r.lba))
                    g_sink = g_sink + *v;
                continue;
            }
            if (live == fifo.size()) {
                map.erase(fifo[head]);
                head = (head + 1) % fifo.size();
                --live;
            }
            bool inserted = false;
            map.insertOrGet(r.lba, &inserted) = r.lba;
            if (inserted) {
                fifo[(head + live) % fifo.size()] = r.lba;
                ++live;
            }
        }
    });
}

/** Word lines the workload's LBAs land on, one per request. */
std::vector<nand::WlAddr>
wlAddrs(const ReplayInputs &in)
{
    const auto &g = in.config.chip.geometry;
    std::vector<nand::WlAddr> addrs;
    addrs.reserve(in.requests.size());
    for (const auto &r : in.requests) {
        const std::uint64_t wl = r.lba / g.pagesPerWl;
        const std::uint64_t inBlock = wl % g.wlsPerBlock();
        addrs.push_back(nand::WlAddr{
            static_cast<std::uint32_t>((wl / g.wlsPerBlock()) %
                                       g.blocksPerChip),
            static_cast<std::uint32_t>(inBlock / g.wlsPerLayer),
            static_cast<std::uint32_t>(inBlock % g.wlsPerLayer)});
    }
    return addrs;
}

struct NandReplays
{
    double readModel = 0.0;
    double ispp = 0.0;
    double termHit = 0.0;
    double termMiss = 0.0;
};

NandReplays
replayNand(const ReplayInputs &in, double budgetS)
{
    NandReplays out;
    nand::NandChip chip(in.config.chip);
    chip.setAging(in.aging);
    const auto addrs = wlAddrs(in);
    if (addrs.empty())
        return out;
    const auto cache = [&] {
        return std::make_unique<nand::ErrorTermCache>(
            chip.geometry(), chip.process(), chip.errors(), chip.vth(),
            chip.ispp());
    };

    auto warm = cache();
    std::vector<nand::WlTerms> terms;
    terms.reserve(addrs.size());
    for (const auto &a : addrs)
        terms.push_back(warm->terms(a, 0, in.aging));

    Rng rng(in.generatorSeed ^ 0x5EEDull);
    out.readModel = timeBatches(budgetS, terms.size(), [&] {
        for (const auto &t : terms) {
            const auto r = chip.readModel().readFromTerms(
                t.shiftBase, t.normBase, 1.0, 0, rng);
            g_sink = g_sink + static_cast<std::uint64_t>(r.tRead);
        }
    });
    const nand::ProgramCommand nominal{};
    out.ispp = timeBatches(budgetS, terms.size(), [&] {
        for (const auto &t : terms) {
            const auto r = chip.ispp().programWithTerms(
                t.q, t.speedMv, t.severity, t.sigma, t.normBase, nominal,
                rng);
            g_sink = g_sink + static_cast<std::uint64_t>(r.tProg);
        }
    });
    out.termHit = timeBatches(budgetS, addrs.size(), [&] {
        for (const auto &a : addrs)
            g_sink = g_sink + static_cast<std::uint64_t>(
                                  warm->terms(a, 0, in.aging).q * 8.0);
    });
    // A new erase count per pass is a new aging epoch for every block,
    // so a pass over the distinct word lines misses on every lookup.
    std::vector<nand::WlAddr> distinct = addrs;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    auto cold = cache();
    PeCycles epoch = 0;
    out.termMiss = timeBatches(budgetS, distinct.size(), [&] {
        ++epoch;
        for (const auto &a : distinct)
            g_sink = g_sink + static_cast<std::uint64_t>(
                                  cold->terms(a, epoch, in.aging).q * 8.0);
    });
    return out;
}

double
replayArbiter(const ReplayInputs &in, double budgetS)
{
    ssd::SsdConfig config = in.config;
    config.hostQueueDepth = 0;
    ssd::Ssd dev(config);
    // Window 1: the first submission dispatches, the rest of a batch
    // queue behind it, the state the arbiter is in above the knee. The
    // queue is never stepped, so the device does no work.
    constexpr std::size_t kBatch = 2048;
    std::vector<ssd::HostRequest> reqs;
    for (std::size_t i = 0; i < kBatch; ++i)
        reqs.push_back(in.requests[i % in.requests.size()]);
    std::unique_ptr<ssd::WrrArbiter> arb;
    return timeBatches(budgetS, kBatch, [&] {
        arb = std::make_unique<ssd::WrrArbiter>(dev.hostQueue(),
                                                ssd::ArbiterConfig{1, 4});
        arb->addQueue(3);
        arb->addQueue(1);
        for (const auto &r : reqs)
            arb->submit(r.tenant >= 2 ? 1 : 0, r, nullptr, 0);
    });
}

double
replayGenerator(const ReplayInputs &in, double budgetS)
{
    workload::WorkloadGenerator gen(in.spec, in.config.logicalPages(),
                                    in.generatorSeed);
    constexpr std::uint64_t kOps = 4096;
    return timeBatches(budgetS, kOps, [&] {
        for (std::uint64_t i = 0; i < kOps; ++i)
            g_sink = g_sink + gen.next().lba;
    });
}

double
replayHistogram(const ReplayInputs &in, double budgetS)
{
    metrics::LatencyHistogram hist;
    const auto &lat = in.latenciesNs;
    if (lat.empty())
        return 0.0;
    return timeBatches(budgetS, lat.size(), [&] {
        for (const SimTime v : lat)
            hist.add(v);
    });
}

}  // namespace

LayerNs
replayLayers(const ReplayInputs &in, double budgetS)
{
    LayerNs out;
    if (in.requests.empty())
        return out;
    out.eventQueue = replayEventQueue(in, budgetS);
    out.mapping = replayMapping(in, budgetS);
    out.flatMap = replayFlatMap(in, budgetS);
    const NandReplays nand = replayNand(in, budgetS);
    out.readModel = nand.readModel;
    out.ispp = nand.ispp;
    out.termHit = nand.termHit;
    out.termMiss = nand.termMiss;
    out.arbiter = replayArbiter(in, budgetS);
    out.generator = replayGenerator(in, budgetS);
    out.histogram = replayHistogram(in, budgetS);
    return out;
}

}  // namespace cubebench
