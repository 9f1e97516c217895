#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "sim/logging.hh"

namespace rpcvalet::perfbench {

namespace {

/** Run size: warmup and measured completions. Retained latency
 *  samples, and with them peak RSS, grow with the measured count. */
void
setRunSize(core::ExperimentConfig &cfg, std::uint64_t warmup,
           std::uint64_t measured, std::uint64_t scale)
{
    cfg.warmupRpcs = warmup / scale;
    cfg.measuredRpcs = measured / scale;
}

/** Domain workers of the parallel workload: min(4, nproc). */
unsigned
parallelWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "herd_1x16", "masstree_16x1", "cluster4_pdes", "lossy_failover"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t scale)
{
    RV_ASSERT(scale >= 1, "scale must be >= 1");
    Workload w;
    w.name = name;
    core::ExperimentConfig &cfg = w.config;
    cfg.system.policy = "greedy";
    cfg.arrival = "poisson";
    cfg.workload = "herd";

    if (name == "herd_1x16") {
        cfg.system.mode = ni::DispatchMode::SingleQueue;
        setRunSize(cfg, 20000, 200000, scale);
        w.load = 0.8;
        w.sloNs = 5500.0;
        w.sloLo = 0.85;
        w.sloHi = 1.1;
    } else if (name == "masstree_16x1") {
        cfg.system.mode = ni::DispatchMode::StaticHash;
        cfg.workload = "masstree:scan_ratio=0.01";
        // Longer than herd: its tail sits behind rare 60-120 us scans.
        setRunSize(cfg, 30000, 300000, scale);
        w.load = 0.5;
        w.sloNs = 75000.0;
        w.sloLo = 0.04;
        w.sloHi = 0.3;
    } else if (name == "cluster4_pdes") {
        cfg.cluster.numServerNodes = 4;
        cfg.cluster.router = "bounded-load:c=1.25";
        // The windowed PDES path on one worker: windows, mailboxes and
        // barriers without threads, whose timing on a shared host
        // measures the scheduler. The run on min(4, nproc) workers
        // must give the same outcome.
        cfg.parallelDomains = 1;
        w.checkWorkers = parallelWorkers();
        setRunSize(cfg, 20000, 200000, scale);
        w.load = 0.7;
        w.sloNs = 5500.0;
        w.sloLo = 0.85;
        w.sloHi = 1.1;
    } else if (name == "lossy_failover") {
        // examples/scenarios/chaos_failover.scn's cluster and retry
        // settings with packet loss as the only fault (no timed crash).
        cfg.cluster.numServerNodes = 4;
        cfg.cluster.router = "bounded-load:c=1.25";
        cfg.cluster.requestTimeout = sim::microseconds(30.0);
        cfg.cluster.failThreshold = 3;
        cfg.cluster.recoveryAfter = sim::microseconds(200.0);
        cfg.faults = {"packet-loss:p=0.005"};
        // The cluster runs healthy for a random stretch, then collapses
        // and stays collapsed. The long warmup lands the collapse before the
        // measured window for every seed. The collapsed cluster cycles
        // through 200 us recoveries, and its tail moves with the few
        // cycles a window holds: the measured window is as long as the
        // others' in completions, though a collapsed completion costs
        // several times the host time.
        setRunSize(cfg, 100000, 200000, scale);
        cfg.retry.maxAttempts = 6;
        cfg.retry.baseBackoff = sim::microseconds(5.0);
        cfg.retry.multiplier = 2.0;
        cfg.retry.jitter = 0.2;
        cfg.retry.hedgeAfter = sim::microseconds(20.0);
        w.load = 0.6;
        w.sloNs = 150000.0;
        w.sloLo = 0.2;
        w.sloHi = 0.8;
        // The SLO is lost at that collapse, whose load varies from seed
        // to seed: probe with the usual short warmup (the long one only
        // lowers and widens the cliff) and half the measured window,
        // and take the median of three searches.
        w.sloWarmupRpcs = 10000 / scale;
        w.sloMeasuredRpcs = 100000 / scale;
        w.sloSeeds = 3;
    } else {
        std::string known;
        for (const std::string &n : workloadNames())
            known += (known.empty() ? "" : ", ") + n;
        sim::fatal(sim::strfmt("unknown workload '%s' (known: %s)",
                               name.c_str(), known.c_str()));
    }
    if (w.sloWarmupRpcs == 0)
        w.sloWarmupRpcs = cfg.warmupRpcs;
    if (w.sloMeasuredRpcs == 0)
        w.sloMeasuredRpcs = cfg.measuredRpcs;
    cfg.system.seed = seed;
    w.capacityRps = core::estimateCapacityRps(cfg.system, cfg.workload) *
                    cfg.cluster.numServerNodes;
    cfg.arrivalRps = w.load * w.capacityRps;
    return w;
}

core::ExperimentConfig
sloProbe(const Workload &w, double load, std::uint64_t seed)
{
    core::ExperimentConfig cfg = w.config;
    cfg.arrivalRps = load * w.capacityRps;
    cfg.warmupRpcs = w.sloWarmupRpcs;
    cfg.measuredRpcs = w.sloMeasuredRpcs;
    cfg.system.seed = seed;
    return cfg;
}

} // namespace rpcvalet::perfbench
