/**
 * @file
 * Outside-in per-layer replays: each layer's public API driven on its
 * own with inputs taken from the workload, timed as host wall ns/op.
 */

#ifndef CUBEBENCH_LAYERS_H
#define CUBEBENCH_LAYERS_H

#include <cstdint>
#include <vector>

#include "src/nand/error_model.h"
#include "src/ssd/config.h"
#include "src/ssd/request.h"
#include "src/workload/workload.h"

namespace cubebench {

/** What a replay needs from the workload it stands in for. */
struct ReplayInputs
{
    cubessd::ssd::SsdConfig config;
    cubessd::nand::AgingState aging{};
    /** Generator spec and seed of the workload's (first) stream. */
    cubessd::workload::WorkloadSpec spec;
    std::uint64_t generatorSeed = 0;
    /** Requests as the workload issued them (type, LBA, size, tenant). */
    std::vector<cubessd::ssd::HostRequest> requests;
    /** Simulated latencies (ns) of the workload's completions. */
    std::vector<cubessd::SimTime> latenciesNs;
    /** Simulated time per fired event of the workload (ns). */
    double eventGapNs = 1000.0;
};

/** Host wall ns per operation of each replayed layer (median batch). */
struct LayerNs
{
    double eventQueue = 0.0;  ///< EventQueue schedule + step
    double mapping = 0.0;     ///< MappingTable lookup (read) / map (write)
    double flatMap = 0.0;     ///< FlatMap64 find / insert / erase
    double readModel = 0.0;   ///< ReadModel::readFromTerms
    double ispp = 0.0;        ///< IsppEngine::programWithTerms
    double termHit = 0.0;     ///< ErrorTermCache::terms, cached epoch
    double termMiss = 0.0;    ///< ErrorTermCache::terms, new epoch
    double arbiter = 0.0;     ///< WrrArbiter::submit into a backlog
    double generator = 0.0;   ///< WorkloadGenerator::next
    double histogram = 0.0;   ///< LatencyHistogram::add
};

/** Run every replay; each takes about `budgetS` of host wall time. */
LayerNs replayLayers(const ReplayInputs &inputs, double budgetS);

}  // namespace cubebench

#endif  // CUBEBENCH_LAYERS_H
