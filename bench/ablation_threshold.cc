/**
 * @file
 * Ablation (§4.3 / §6.1): outstanding-requests-per-core threshold.
 *
 * The paper allows 2 outstanding RPCs per core: 1 behaves like a pure
 * single-queue system but leaves a dispatch-round-trip bubble between
 * RPCs; 2 hides the bubble at the cost of a slight multi-queue
 * effect. Expected: threshold 1 marginally degrades HERD's (sub-us
 * RPCs) throughput; no measurable difference for longer RPCs; larger
 * thresholds start hurting tail latency.
 */

#include <cstdio>

#include "common.hh"

namespace {

using namespace rpcvalet;

void
runWorkload(const bench::BenchArgs &args, const std::string &name,
            const app::WorkloadSpec &workload, double capacity)
{
    std::printf("\n=== workload: %s ===\n", name.c_str());
    std::printf("%10s %16s %14s %14s\n", "threshold", "capacity(Mrps)",
                "p99@70%(us)", "p99@90%(us)");
    double thr1_cap = 0.0;
    double thr2_cap = 0.0;
    for (const std::uint32_t threshold : {1u, 2u, 4u, 8u}) {
        core::ExperimentConfig cfg;
        cfg.system.outstandingPerCore = threshold;
        cfg.system.seed = args.seed;
        cfg.warmupRpcs = args.warmup;
        cfg.measuredRpcs = args.rpcs;
        cfg.workload = workload;
        bench::applyModeOverride(args, cfg);
        bench::applyAxisOverrides(args, cfg, {"policy", "arrival"});

        // Capacity probe: heavy overload.
        cfg.arrivalRps = 2.5 * capacity;
        const auto overload = core::runExperiment(cfg);

        cfg.arrivalRps = 0.7 * capacity;
        const auto mid = core::runExperiment(cfg);

        cfg.arrivalRps = 0.9 * capacity;
        const auto high = core::runExperiment(cfg);

        std::printf("%10u %16.2f %14.2f %14.2f\n", threshold,
                    overload.point.achievedRps / 1e6,
                    mid.point.p99Ns / 1e3, high.point.p99Ns / 1e3);
        if (threshold == 1)
            thr1_cap = overload.point.achievedRps;
        if (threshold == 2)
            thr2_cap = overload.point.achievedRps;
    }
    const double degradation = 1.0 - thr1_cap / thr2_cap;
    std::printf("[info] %s: threshold-1 capacity loss vs threshold-2: "
                "%.1f%% (paper: marginal)\n",
                name.c_str(), 100.0 * degradation);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    // The workload pair below is this bench's fixed axis unless
    // --workload narrows it to a single spec.
    bench::printHeader("Ablation: outstanding-per-core threshold",
                       "threshold 1 leaves a dispatch bubble; 2 hides "
                       "it; larger values re-introduce multi-queue "
                       "imbalance");

    node::SystemParams sys;
    std::vector<app::WorkloadSpec> workloads = {
        app::WorkloadSpec("herd"),
        app::WorkloadSpec("synthetic:dist=gev")};
    if (!args.workload.empty())
        workloads = {app::WorkloadSpec(args.workload)};
    args.workload.clear();
    for (const app::WorkloadSpec &workload : workloads) {
        runWorkload(args, workload.toString(), workload,
                    core::estimateCapacityRps(sys, workload));
    }
    return 0;
}
