/**
 * @file
 * Ablation (§4.3): dispatch policy and dispatcher placement.
 *
 * The paper's proof-of-concept dispatcher is greedy; §4.3 notes
 * implementations "can range from simple hardwired logic to microcoded
 * state machines" and that the backend-to-dispatcher indirection
 * "adds just a few ns". This bench quantifies both: every policy in
 * the ni::PolicyRegistry (greedy, rr, pow2, jbsq, stale-jsq,
 * delay-aware, plus anything registered externally) at default
 * parameters, and the dispatcher pinned to each of the four backends.
 * Pass --policy=SPEC (e.g. --policy=jbsq:d=2) to run a single
 * parameterized spec instead of the whole registry.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    const auto args = bench::parseArgs(argc, argv);
    bench::printHeader("Ablation: dispatch policy and placement",
                       "GEV service; every registered policy; dispatcher "
                       "on backend 0..3");

    const app::WorkloadSpec workload =
        args.workload.empty() ? app::WorkloadSpec("synthetic:dist=gev")
                              : app::WorkloadSpec(args.workload);
    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, workload);

    // --policy narrows the sweep to one spec; default sweeps the
    // whole registry by name (each at its default parameters).
    std::vector<ni::PolicySpec> specs;
    if (!args.policy.empty()) {
        specs.push_back(ni::PolicySpec::parse(args.policy));
    } else {
        for (const std::string &name :
             ni::PolicyRegistry::instance().names())
            specs.push_back(ni::PolicySpec::parse(name));
    }

    std::printf("\n--- dispatch policy (1x16, load 0.7 / 0.9) ---\n");
    std::printf("%26s %14s %14s %16s\n", "policy", "p99@70%(us)",
                "p99@90%(us)", "capacity(Mrps)");
    for (const ni::PolicySpec &spec : specs) {
        core::ExperimentConfig cfg;
        cfg.system.policy = spec;
        cfg.system.seed = args.seed;
        cfg.warmupRpcs = args.warmup;
        cfg.measuredRpcs = args.rpcs;
        cfg.workload = workload;
        // No --policy override: it already narrowed the sweep, and
        // applying it here would clobber the swept spec.
        bench::applyModeOverride(args, cfg);
        bench::applyAxisOverrides(args, cfg, {"arrival"});

        cfg.arrivalRps = 0.7 * capacity;
        const auto mid = core::runExperiment(cfg);
        cfg.arrivalRps = 0.9 * capacity;
        const auto high = core::runExperiment(cfg);
        cfg.arrivalRps = 2.0 * capacity;
        const auto overload = core::runExperiment(cfg);

        std::printf("%26s %14.2f %14.2f %16.2f\n",
                    ni::makePolicy(spec)->name().c_str(),
                    mid.point.p99Ns / 1e3, high.point.p99Ns / 1e3,
                    overload.point.achievedRps / 1e6);
    }

    std::printf("\n--- dispatcher placement (%s, load 0.9) ---\n",
                args.policy.empty() ? "greedy" : args.policy.c_str());
    std::printf("%12s %14s %14s\n", "backend", "p99(us)", "mean(us)");
    double best = 1e18;
    double worst = 0.0;
    for (std::uint32_t b = 0; b < 4; ++b) {
        core::ExperimentConfig cfg;
        cfg.system.dispatcherBackend = b;
        cfg.system.seed = args.seed;
        cfg.warmupRpcs = args.warmup;
        cfg.measuredRpcs = args.rpcs;
        cfg.arrivalRps = 0.9 * capacity;
        cfg.workload = workload;
        bench::applyOverrides(args, cfg);
        const auto r = core::runExperiment(cfg);
        std::printf("%12u %14.2f %14.2f\n", b, r.point.p99Ns / 1e3,
                    r.point.meanNs / 1e3);
        best = std::min(best, r.point.p99Ns);
        worst = std::max(worst, r.point.p99Ns);
    }
    // §4.3: placement indirection is negligible.
    bench::claim("placement p99 spread (worst/best)", 1.0, worst / best,
                 0.10);
    return 0;
}
