/**
 * @file
 * Figure 7b: Masstree (99% gets + 1% 60-120 us scans) on the three
 * hardware configurations; get p99 vs total throughput.
 *
 * Paper results to reproduce in shape: at the 12.5 us SLO, 16x1 fails
 * even at 2 Mrps, 4x4 violates by ~3 Mrps, 1x16 reaches ~4.1 Mrps
 * (+37% over 4x4). Under a relaxed 75 us SLO, 1x16 beats 16x1 by ~54%
 * and 4x4 by ~20%.
 *
 * A second part re-expresses the get+scan blend through the composite
 * workload spec ("mix:masstree-get=0.998,masstree-scan=0.002") and
 * reports the per-class breakdown — get and scan tails accounted
 * separately (scan latency used to be discarded entirely) — in the
 * table and the --json "class_stats" array.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    auto args = bench::parseArgs(argc, argv);
    // The dispatch mode is this figure's axis.
    bench::dropModeAxis(args);
    // Scans are 60-120 us: each point needs fewer RPCs to be slow, so
    // trim the default to keep runtime balanced with other figures.
    args.rpcs = std::max<std::uint64_t>(10000, args.rpcs / 2);

    bench::printHeader(
        "Figure 7b: Masstree with interfering scans",
        "get p99 vs throughput; SLO = 12.5 us, relaxed SLO = 75 us");

    const app::WorkloadSpec workload =
        args.workload.empty() ? app::WorkloadSpec("masstree")
                              : app::WorkloadSpec(args.workload);
    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, workload);

    const std::vector<ni::DispatchMode> modes = {
        ni::DispatchMode::SingleQueue, ni::DispatchMode::PerBackendGroup,
        ni::DispatchMode::StaticHash};

    std::vector<stats::Series> all;
    for (const auto mode : modes) {
        core::ExperimentConfig base;
        base.system.mode = mode;
        base.workload = workload;
        auto sweep = bench::makeSweep(args, base,
                                      ni::dispatchModeName(mode),
                                      capacity, 0.15, 1.0);
        all.push_back(core::runSweep(sweep).series);
    }
    std::printf("%s\n",
                stats::formatSeriesTable(
                    "Masstree get-tail vs throughput", all, true)
                    .c_str());

    // Paper SLO: 10x the get service time = 12.5 us.
    const double slo_ns = 12500.0;
    bench::printSloSummary("Throughput under 12.5 us SLO "
                           "(baseline = 16x1)",
                           all, slo_ns);
    const auto r_1x16 = stats::throughputUnderSlo(all[0], slo_ns);
    const auto r_4x4 = stats::throughputUnderSlo(all[1], slo_ns);
    const auto r_16x1 = stats::throughputUnderSlo(all[2], slo_ns);
    if (r_1x16.met)
        bench::claim("1x16 tput @12.5us SLO (Mrps)", 4.1,
                     r_1x16.throughputRps / 1e6, 0.30);
    if (r_1x16.met && r_4x4.met)
        bench::claim("1x16 / 4x4 ratio @12.5us", 1.37,
                     r_1x16.throughputRps / r_4x4.throughputRps, 0.25);
    std::printf("[info] 16x1 meets 12.5us SLO: %s (paper: no, even at "
                "2 Mrps)\n",
                r_16x1.met ? sim::strfmt("yes, up to %.1f Mrps",
                                         r_16x1.throughputRps / 1e6)
                                 .c_str()
                           : "no");

    // Relaxed SLO: 75 us.
    const double relaxed_ns = 75000.0;
    bench::printSloSummary("Throughput under 75 us SLO "
                           "(baseline = 16x1)",
                           all, relaxed_ns);
    const auto x_1x16 = stats::throughputUnderSlo(all[0], relaxed_ns);
    const auto x_4x4 = stats::throughputUnderSlo(all[1], relaxed_ns);
    const auto x_16x1 = stats::throughputUnderSlo(all[2], relaxed_ns);
    if (x_1x16.met && x_16x1.met)
        bench::claim("1x16 / 16x1 ratio @75us", 1.54,
                     x_1x16.throughputRps / x_16x1.throughputRps, 0.30);
    if (x_1x16.met && x_4x4.met)
        bench::claim("1x16 / 4x4 ratio @75us", 1.20,
                     x_1x16.throughputRps / x_4x4.throughputRps, 0.25);

    // --- get+scan blend via the composite workload, with per-class
    // tails. The mix samples the same stores' pure-get and pure-scan
    // workloads at 99.8% / 0.2%, so the scan class is rare enough for
    // its p99 to be dominated by its own 60-120 us runtime while gets
    // keep a ~us-scale tail — visible only now that scan latency is
    // recorded per class instead of discarded.
    const app::WorkloadSpec mix(
        "mix:masstree-get=0.998,masstree-scan=0.002");
    // Load fractions are of the mix's own capacity (the sweep above
    // may be running a --workload override with a different S-bar).
    const double mix_capacity = core::estimateCapacityRps(sys, mix);
    std::printf("\n=== composite workload: %s (1x16) ===\n",
                mix.toString().c_str());
    for (const double load : {0.4, 0.8}) {
        core::ExperimentConfig cfg;
        cfg.workload = mix;
        cfg.system.seed = args.seed;
        cfg.warmupRpcs = args.warmup;
        cfg.measuredRpcs = args.rpcs;
        cfg.arrivalRps = load * mix_capacity;
        bench::applyAxisOverrides(args, cfg, {"policy", "arrival"});
        const core::RunStats r = core::runExperiment(cfg);
        bench::printClassStats(
            sim::strfmt("%s @ %.0f%% load", mix.toString().c_str(),
                        100.0 * load),
            r.perClass);
    }
    return 0;
}
