#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "conn/conn.hh"
#include "core/registry_listing.hh"
#include "core/run_stats_fields.hh"
#include "fault/fault.hh"
#include "scenario/runner.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"
#include "stats/json.hh"

namespace rpcvalet::bench {

namespace {

using WallClock = std::chrono::steady_clock;

/** Bench start (set in parseArgs), for the wall-clock perf summary. */
WallClock::time_point g_benchStart;

/**
 * Everything destined for the --json report, accumulated as the bench
 * prints and written once at exit. Series are keyed by label so a
 * curve printed through several helpers lands in the report once.
 */
struct JsonReport
{
    bool enabled = false;
    std::string path;
    std::string benchName;
    BenchArgs args;

    struct SeriesEntry
    {
        stats::Series series;
        double capacityRps = 0.0;
        double sbarNs = 0.0;
    };
    std::vector<SeriesEntry> series;

    struct ClaimEntry
    {
        std::string what;
        double paper = 0.0;
        double measured = 0.0;
        double relTol = 0.0;
        bool holds = false;
    };
    std::vector<ClaimEntry> claims;

    struct ClassStatsEntry
    {
        std::string label;
        std::vector<core::ClassStats> classes;
    };
    std::vector<ClassStatsEntry> classStats;
};

JsonReport &
report()
{
    static JsonReport r;
    return r;
}

/**
 * Wall-clock seconds and simulator events/sec for this bench run —
 * the perf trajectory every bench reports (printed at exit, and
 * recorded in the --json "perf" object so BENCH_*.json artifacts
 * track kernel throughput across PRs).
 */
struct PerfSummary
{
    double wallSeconds = 0.0;
    std::uint64_t simEvents = 0;
    double eventsPerSec = 0.0;
};

PerfSummary
perfSummary()
{
    PerfSummary p;
    p.wallSeconds =
        std::chrono::duration<double>(WallClock::now() - g_benchStart)
            .count();
    p.simEvents = core::totalSimulatedEvents();
    if (p.wallSeconds > 0.0)
        p.eventsPerSec =
            static_cast<double>(p.simEvents) / p.wallSeconds;
    return p;
}

void
printPerfSummary()
{
    const PerfSummary p = perfSummary();
    std::printf("[perf] %.2f s wall, %.3g simulator events, "
                "%.3g events/s\n",
                p.wallSeconds, static_cast<double>(p.simEvents),
                p.eventsPerSec);
}

void
writeJsonReport()
{
    const JsonReport &r = report();
    if (!r.enabled) {
        printPerfSummary();
        return;
    }
    stats::JsonWriter w;
    w.beginObject();
    w.value("bench", r.benchName);
    // Provenance stamp: which build produced these numbers (the same
    // stamp the scenario runner's summary.json carries), so archived
    // BENCH_*.json artifacts stay traceable to a commit.
    scenario::writeMeta(w, sim::iso8601UtcNow());
    w.beginObject("args");
    w.value("points", r.args.points);
    w.value("rpcs", r.args.rpcs);
    w.value("warmup", r.args.warmup);
    w.value("seed", r.args.seed);
    w.value("fast", r.args.fast);
    w.value("mode", r.args.mode);
    scenario::writeAxes(w, r.args, /*flags_only=*/true);
    w.value("parallel_domains", r.args.parallelDomains);
    w.value("connections", r.args.connections);
    w.end();

    core::JsonFields fields(w);
    w.beginArray("series");
    for (const auto &entry : r.series) {
        const std::vector<stats::LoadPoint> &points = entry.series.points;
        w.beginObject();
        w.value("label", entry.series.label);
        w.value("capacity_rps", entry.capacityRps);
        w.value("sbar_ns", entry.sbarNs);
        fields.list("points", nullptr, points.size(), [&](std::size_t p) {
            core::forEachField(fields, points[p]);
        });
        w.end();
    }
    w.end();
    w.beginArray("class_stats");
    for (const auto &entry : r.classStats) {
        w.beginObject();
        w.value("label", entry.label);
        fields.list("classes", nullptr, entry.classes.size(),
                    [&](std::size_t c) {
                        core::forEachField(fields, entry.classes[c]);
                    });
        w.end();
    }
    w.end();
    w.beginArray("claims");
    for (const auto &c : r.claims) {
        w.beginObject();
        w.value("what", c.what);
        w.value("paper", c.paper);
        w.value("measured", c.measured);
        w.value("rel_tol", c.relTol);
        w.value("holds", c.holds);
        w.end();
    }
    w.end();
    const PerfSummary p = perfSummary();
    w.beginObject("perf");
    w.value("wall_seconds", p.wallSeconds);
    w.value("sim_events", p.simEvents);
    w.value("events_per_sec", p.eventsPerSec);
    w.end();
    w.end();
    if (!w.writeFile(r.path)) {
        sim::warn("--json: cannot write '" + r.path + "'");
        return;
    }
    printPerfSummary();
    std::printf("[json] wrote %s\n", r.path.c_str());
}

/** Numeric flag @p arg with value @p text: an integer in [lo, hi] in
 *  the spec grammar (sim::parseUint), or fatal() naming the flag. */
std::uint64_t
flagCount(const std::string &arg, const char *text, std::uint64_t lo,
          std::uint64_t hi = ~std::uint64_t{0})
{
    const sim::ErrorContext where(arg);
    const std::uint64_t n = sim::parseUint(text);
    if (n < lo)
        sim::fatal("must be at least " + std::to_string(lo));
    if (n > hi)
        sim::fatal("must be at most " + std::to_string(hi));
    return n;
}

} // namespace

BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    g_benchStart = WallClock::now();
    const char *fast_env = std::getenv("RPCVALET_BENCH_FAST");
    if (fast_env != nullptr && std::strcmp(fast_env, "0") != 0)
        args.fast = true;

    bool points_set = false;
    bool rpcs_set = false;
    bool warmup_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        // A bad axis value dies here, naming the flag, even in a bench
        // that ignores the flag.
        if (scenario::parseAxisFlag(arg, args))
            continue;
        if (const char *points = value("--points=")) {
            // A load sweep needs both ends of its grid.
            args.points = static_cast<std::size_t>(flagCount(arg, points, 2));
            points_set = true;
        } else if (const char *rpcs = value("--rpcs=")) {
            args.rpcs = flagCount(arg, rpcs, 1);
            rpcs_set = true;
        } else if (const char *warmup = value("--warmup=")) {
            args.warmup = flagCount(arg, warmup, 0);
            warmup_set = true;
        } else if (const char *seed = value("--seed="))
            args.seed = flagCount(arg, seed, 0);
        else if (const char *threads = value("--threads="))
            args.threads =
                static_cast<unsigned>(flagCount(arg, threads, 1, 1024));
        else if (const char *domains = value("--parallel-domains="))
            args.parallelDomains =
                static_cast<unsigned>(flagCount(arg, domains, 0, 1024));
        else if (const char *fault = value("--fault=")) {
            if (*fault == '\0')
                sim::fatal("--fault needs a spec (e.g. "
                           "--fault=packet-loss:p=0.01)");
            args.faults.emplace_back(fault);
        } else if (const char *conn = value("--connections=")) {
            if (*conn == '\0')
                sim::fatal("--connections needs a spec (e.g. "
                           "--connections=grouped:clients=2048,"
                           "size=40,slice=100us)");
            args.connections = conn;
        } else if (arg == "--list-specs") {
            std::fputs(core::formatRegistryListing().c_str(), stdout);
            std::exit(0);
        } else if (const char *mode = value("--mode="))
            args.mode = mode;
        else if (const char *json = value("--json="))
            args.json = json;
        else if (arg == "--fast")
            args.fast = true;
        else
            sim::fatal("unknown bench argument: " + arg);
    }

    // Fast mode shrinks the defaults for smoke runs; explicitly
    // passed sizes always win so CI can pin exact tiny runs.
    if (args.fast) {
        if (!points_set)
            args.points = std::max<std::size_t>(5, args.points / 2);
        if (!rpcs_set)
            args.rpcs = std::max<std::uint64_t>(10000, args.rpcs / 5);
        if (!warmup_set)
            args.warmup = std::max<std::uint64_t>(1000, args.warmup / 5);
    }

    if (!args.json.empty()) {
        JsonReport &r = report();
        r.enabled = true;
        r.path = args.json;
        std::string name = argc > 0 ? argv[0] : "bench";
        const std::size_t slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name = name.substr(slash + 1);
        if (name.compare(0, 6, "bench_") == 0)
            name = name.substr(6);
        r.benchName = name;
        r.args = args;
    }
    // Report wall-clock and events/sec at exit — and write the JSON
    // report when enabled — even if the bench exits early through
    // fatal() (which calls exit(1), running atexit hooks).
    std::atexit(writeJsonReport);
    return args;
}

void
applyAxisOverrides(const BenchArgs &args, core::ExperimentConfig &cfg,
                   std::initializer_list<std::string> only)
{
    for (const scenario::Axis &axis : scenario::axes()) {
        const std::string &value = args.*axis.value;
        const bool picked =
            only.size() == 0 ||
            std::find(only.begin(), only.end(), axis.key) != only.end();
        if (picked && !value.empty())
            axis.apply(value, cfg);
    }
}

void
applyModeOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (args.mode.empty())
        return;
    cfg.system.mode = ni::dispatchModeFromName(args.mode);
}

void
applyFaultOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    for (const std::string &spec : args.faults) {
        // Instantiating through the registry validates the name and
        // the shape-independent parameters right here; node/core
        // ranges are checked when the run resolves the spec.
        const fault::FaultSpec parsed(spec);
        (void)fault::FaultRegistry::instance().make(parsed);
        cfg.faults.push_back(parsed);
    }
}

void
applyConnectionsOverride(const BenchArgs &args,
                         core::ExperimentConfig &cfg)
{
    if (args.connections.empty())
        return;
    // Parsing validates the scheduler through the registry and fatals
    // on a missing 'clients' key, so a typo dies at flag level.
    cfg.connections = conn::parseConnConfig(args.connections);
}

void
applyOverrides(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    applyModeOverride(args, cfg);
    applyAxisOverrides(args, cfg);
    applyFaultOverride(args, cfg);
    applyConnectionsOverride(args, cfg);
    if (args.parallelDomains > 0)
        cfg.parallelDomains = args.parallelDomains;
}

void
dropModeAxis(BenchArgs &args)
{
    if (args.mode.empty())
        return;
    (void)ni::dispatchModeFromName(args.mode); // typos still die
    sim::warn("--mode=" + args.mode +
              " ignored: the dispatch mode is this bench's figure axis");
    args.mode.clear();
}

void
dropWorkloadAxis(BenchArgs &args)
{
    if (args.workload.empty())
        return;
    sim::warn("--workload=" + args.workload +
              " ignored: the workload is this bench's figure axis");
    args.workload.clear();
}

void
printHeader(const std::string &figure, const std::string &summary)
{
    std::printf("==========================================================="
                "=====\n");
    std::printf("%s\n", figure.c_str());
    std::printf("%s\n", summary.c_str());
    std::printf("==========================================================="
                "=====\n");
}

void
recordJsonSeries(const stats::Series &series, double capacity_rps,
                 double sbar_ns)
{
    JsonReport &r = report();
    if (!r.enabled)
        return;
    for (auto &entry : r.series) {
        if (entry.series.label == series.label) {
            entry.series = series;
            // Keep the richer normalization data if the update has
            // none (printSloSummary records with 0/0).
            if (capacity_rps > 0.0) {
                entry.capacityRps = capacity_rps;
                entry.sbarNs = sbar_ns;
            }
            return;
        }
    }
    r.series.push_back({series, capacity_rps, sbar_ns});
}

void
printNormalizedSeries(const stats::Series &series, double capacity_rps,
                      double sbar_ns)
{
    recordJsonSeries(series, capacity_rps, sbar_ns);
    std::printf("\n-- %s (S-bar = %.0f ns) --\n", series.label.c_str(),
                sbar_ns);
    std::printf("%8s %14s %12s %12s\n", "load", "tput(Mrps)",
                "p99(xSbar)", "mean(xSbar)");
    for (const auto &p : series.points) {
        std::printf("%8.2f %14.3f %12.2f %12.2f\n",
                    p.offeredRps / capacity_rps, p.achievedRps / 1e6,
                    p.p99Ns / sbar_ns, p.meanNs / sbar_ns);
    }
}

void
printSloSummary(const std::string &title,
                const std::vector<stats::Series> &series, double slo_ns)
{
    for (const auto &s : series)
        recordJsonSeries(s);
    std::printf("\n%s\n",
                stats::formatSloTable(title, series, slo_ns,
                                      series.size() - 1)
                    .c_str());
}

void
recordClassStats(const std::string &label,
                 const std::vector<core::ClassStats> &classes)
{
    JsonReport &r = report();
    if (!r.enabled)
        return;
    for (auto &entry : r.classStats) {
        if (entry.label == label) {
            entry.classes = classes;
            return;
        }
    }
    r.classStats.push_back({label, classes});
}

void
printClassStats(const std::string &label,
                const std::vector<core::ClassStats> &classes)
{
    recordClassStats(label, classes);
    std::printf("\n-- per-class tails: %s --\n", label.c_str());
    std::printf("%16s %5s %12s %10s %10s %10s %10s %12s\n", "class",
                "crit", "tput(Mrps)", "p50(us)", "p99(us)", "p99.9(us)",
                "SLO(us)", "SLO-attain");
    for (const core::ClassStats &cs : classes) {
        std::printf("%16s %5s %12.3f %10.2f %10.2f %10.2f ",
                    cs.name.c_str(), cs.latencyCritical ? "yes" : "no",
                    cs.achievedRps / 1e6, cs.p50Ns / 1e3,
                    cs.p99Ns / 1e3, cs.p999Ns / 1e3);
        if (cs.sloNs > 0.0) {
            std::printf("%10.2f %11.1f%%\n", cs.sloNs / 1e3,
                        100.0 * cs.sloAttainment);
        } else {
            std::printf("%10s %12s\n", "-", "-");
        }
    }
}

void
claim(const std::string &what, double paper_value, double measured_value,
      double rel_tol)
{
    const bool ok =
        measured_value >= paper_value * (1.0 - rel_tol) &&
        measured_value <= paper_value * (1.0 + rel_tol);
    report().claims.push_back(
        {what, paper_value, measured_value, rel_tol, ok});
    std::printf("[claim] %-46s paper=%-8.3g measured=%-8.3g %s\n",
                what.c_str(), paper_value, measured_value,
                ok ? "OK" : "DIVERGES");
}

core::SweepConfig
makeSweep(const BenchArgs &args, const core::ExperimentConfig &base,
          const std::string &label, double capacity_rps, double lo_util,
          double hi_util)
{
    core::SweepConfig sweep;
    sweep.base = base;
    sweep.base.warmupRpcs = args.warmup;
    sweep.base.measuredRpcs = args.rpcs;
    sweep.base.system.seed = args.seed;
    applyOverrides(args, sweep.base);
    for (double u : core::loadGrid(lo_util, hi_util, args.points))
        sweep.arrivalRates.push_back(u * capacity_rps);
    sweep.label = label;
    sweep.threads = args.threads;
    return sweep;
}

void
recordParallelPerf(const std::vector<unsigned> &workers,
                   const std::vector<double> &eventsPerSec)
{
    RV_ASSERT(workers.size() == eventsPerSec.size() &&
                  !workers.empty(),
              "recordParallelPerf needs one rate per worker count");
    stats::Series series;
    series.label = "events_per_sec_parallel";
    for (std::size_t i = 0; i < workers.size(); ++i) {
        stats::LoadPoint pt;
        pt.offeredRps = static_cast<double>(workers[i]);
        pt.achievedRps = eventsPerSec[i];
        series.points.push_back(pt);
        std::printf("[perf] %u domain worker%s: %.3g events/s%s\n",
                    workers[i], workers[i] == 1 ? "" : "s",
                    eventsPerSec[i],
                    i > 0 && eventsPerSec[0] > 0.0
                        ? sim::strfmt(" (%.2fx vs 1 worker)",
                                      eventsPerSec[i] /
                                          eventsPerSec[0])
                              .c_str()
                        : "");
    }
    recordJsonSeries(series);
}

} // namespace rpcvalet::bench
