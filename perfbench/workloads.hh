/**
 * @file
 * The benchmark's four workloads (see perfbench/README.md for why each
 * exists). Every workload is an open loop: Poisson arrivals at a fixed
 * simulated rate, a fraction of core::estimateCapacityRps per server
 * node. The workload seed goes into cfg.system.seed and nowhere else.
 */

#ifndef RPCVALET_PERFBENCH_WORKLOADS_HH
#define RPCVALET_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace rpcvalet::perfbench {

/** One named workload at its fixed operating point. */
struct Workload
{
    std::string name;
    /** The run at the workload's fixed load, seed applied. */
    core::ExperimentConfig config;
    /** Fixed offered load, as a fraction of cluster capacity. */
    double load = 0.0;
    /** Cluster capacity estimate (all server nodes), rps. */
    double capacityRps = 0.0;
    /** p99 SLO of latency-critical RPCs, ns. */
    double sloNs = 0.0;
    /** Load bracket [lo, hi] the SLO bisection starts from: the SLO
     *  holds at lo and is missed at hi for every seed. */
    double sloLo = 0.0;
    double sloHi = 0.0;
    /** Warmup and measured completions of each SLO probe (config's
     *  unless set). */
    std::uint64_t sloWarmupRpcs = 0;
    std::uint64_t sloMeasuredRpcs = 0;
    /** SLO searches, each on a seed derived from the workload seed;
     *  sim_slo_mrps is their median. */
    unsigned sloSeeds = 1;
    /** Domain workers of one more run whose simulated outcome must
     *  equal the timed run's (0: no such run). */
    unsigned checkWorkers = 0;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with @p seed. @p scale divides the warmup and
 * measured RPC counts (1 = the benchmark's run size; the self-test
 * uses a larger divisor). Unknown names are fatal.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      std::uint64_t scale);

/** One SLO probe: the workload's run at @p load (fraction of
 *  capacity) with the probe run size and seed @p seed. */
core::ExperimentConfig sloProbe(const Workload &w, double load,
                                std::uint64_t seed);

} // namespace rpcvalet::perfbench

#endif // RPCVALET_PERFBENCH_WORKLOADS_HH
