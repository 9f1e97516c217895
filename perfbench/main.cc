/**
 * @file
 * perfbench: the measuring half of the repository benchmark. run.py
 * builds it and runs one mode per process:
 *
 *   perfbench measure --workload W --seed N --seconds S [--scale K]
 *       the end-to-end metrics: set-up time, host throughput and peak
 *       RSS of core::runExperiment, the simulated tail at the
 *       workload's fixed load, and throughput under the SLO.
 *   perfbench trace --workload W --seed N [--scale K] [--spans FILE]
 *       the per-layer metrics of the traced run (traced.hh).
 *
 * Each prints readable lines, then one JSON line with its provenance,
 * metrics and checks. A failed check exits 1; bad arguments and
 * refused builds exit 2.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "sim/build_info.hh"
#include "stats/slo.hh"
#include "traced.hh"
#include "workloads.hh"

namespace rpcvalet::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** One-RPC runs per setup_s median. */
constexpr std::size_t kSetupReps = 9;
/** Timed runs behind host_krps: at least, and at most. */
constexpr std::size_t kMinTimedReps = 3;
constexpr std::size_t kMaxTimedReps = 50;
/** Untraced/traced run pairs behind trace.overhead_frac. */
constexpr int kTracePairs = 2;
/** Bisection steps of the SLO search after probing the bracket. */
constexpr int kSloSteps = 5;
/** Distance between the seeds of a workload's SLO searches. */
constexpr std::uint64_t kSloSeedStride = 0x9E3779B9;
/** fig7a's reference: HERD 1x16 throughput under the 10x S-bar SLO. */
constexpr double kPaperHerdSloMrps = 29.0;

/** For printf's %llu. */
unsigned long long
ull(std::uint64_t v)
{
    return v;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench measure|trace "
                 "--workload NAME --seed N [--seconds S] [--scale K] "
                 "[--spans FILE]\n",
                 msg.c_str());
    std::exit(2);
}

/** Strict unsigned parse: digits only, no sign or blanks, in range. */
std::uint64_t
parseUint(const std::string &flag, const std::string &text,
          std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usageError(flag + " needs a decimal integer, got '" + text + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi) {
        usageError(sim::strfmt("%s must be in [%llu, %llu], got '%s'",
                               flag.c_str(),
                               ull(lo),
                               ull(hi),
                               text.c_str()));
    }
    return v;
}

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    std::uint64_t seconds = 10;
    std::uint64_t scale = 1;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usageError("missing mode");
    Args a;
    a.mode = argv[1];
    if (a.mode != "measure" && a.mode != "trace")
        usageError("unknown mode '" + a.mode + "'");
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        const std::string val = argv[i + 1];
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = parseUint(flag, val, 0, (1ull << 62));
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = parseUint(flag, val, 1, 600);
        } else if (flag == "--scale") {
            a.scale = parseUint(flag, val, 1, 1000);
        } else if (flag == "--spans") {
            a.spans = val;
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usageError("unknown or missing --workload '" + a.workload + "'");
    if (!a.haveSeed)
        usageError("missing --seed");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU time of the whole process, every thread, in seconds. Host costs
 * are CPU time, not wall-clock: on a shared host the wall-clock of a
 * run also counts the time it waited for a core.
 */
double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Host-speed probe. A shared host runs the same code up to a third
 * slower, in stretches that last from seconds to minutes, so even the
 * median of a run's samples moves with the host. The probe is a small
 * event loop of its own, fixed here and never changed with the
 * simulator: a binary-heap event queue, a random lookup into a 32 MiB
 * table, a heap allocation and a sample append per event. It slows
 * down with the host the way the simulator does (on a 4-vCPU VM, the
 * log of a timed run's CPU time rose 0.98 times as fast as the log of
 * the probe's, correlation 0.89; a plain pointer chase rose 2.6 times
 * as fast). time() runs the probe before and after the code it times
 * and scales the code's CPU time by kProbeNominalS over the probe's
 * mean: host seconds at the speed where one probe takes
 * kProbeNominalS.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : table_(kTableSlots, 1) {}

    /** Scaled CPU seconds of fn(). */
    template <typename Fn>
    double
    time(Fn &&fn)
    {
        const double before = loop();
        const double c0 = processCpuS();
        fn();
        const double cpu = processCpuS() - c0;
        const double after = loop();
        const double scaled = cpu * kProbeNominalS / (0.5 * (before + after));
        std::printf("  host sample: CPU %.4f s, probe %.4f/%.4f s, "
                    "scaled %.4f s\n",
                    cpu, before, after, scaled);
        return scaled;
    }

  private:
    static constexpr std::size_t kTableSlots = 4u << 20;
    static constexpr int kPending = 4096;
    static constexpr int kEvents = 250000;
    /** About the probe's CPU time on a quiet 4-vCPU Xeon VM with
     *  105 MiB of L3; only scales the reported figures. */
    static constexpr double kProbeNominalS = 0.1;

    /** CPU seconds of one fixed event loop. */
    double
    loop()
    {
        const double c0 = processCpuS();
        using Event = std::pair<std::uint64_t, std::uint64_t>; // when, key
        std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
            queue;
        std::uint64_t x = 12345; // xorshift64
        const auto rnd = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (int i = 0; i < kPending; ++i)
            queue.push({rnd() % 1000, rnd()});
        std::vector<std::uint64_t> samples;
        std::uint64_t acc = 0;
        for (int i = 0; i < kEvents; ++i) {
            const Event e = queue.top();
            queue.pop();
            std::uint64_t &slot = table_[e.second % table_.size()];
            slot += e.first;
            acc += slot;
            const auto record =
                std::make_unique<std::uint64_t[]>(8 + (e.second & 7));
            record[0] = acc;
            acc ^= record[0] >> 3;
            if ((e.second & 3) == 0)
                samples.push_back(e.first);
            queue.push({e.first + 1 + rnd() % 1000, rnd()});
        }
        sink_ = sink_ + acc + samples.size();
        return processCpuS() - c0;
    }

    std::vector<std::uint64_t> table_;
    volatile std::uint64_t sink_ = 0;
};

double
median(std::vector<double> v)
{
    RV_ASSERT(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/** The latency-critical class's p99.9 (each workload has exactly one). */
double
criticalP999Ns(const core::RunStats &s)
{
    const core::ClassStats *crit = nullptr;
    for (const core::ClassStats &c : s.perClass) {
        if (c.latencyCritical) {
            RV_ASSERT(crit == nullptr,
                      "workload has several latency-critical classes");
            crit = &c;
        }
    }
    RV_ASSERT(crit != nullptr, "workload has no latency-critical class");
    return crit->p999Ns;
}

/** Requests answered correctly over requests attempted. */
double
answeredFrac(const core::RunStats &s)
{
    const double attempted =
        static_cast<double>(s.completions + s.fault.retryDrops);
    const double failed =
        static_cast<double>(s.fault.retryDrops + s.verifyFailures);
    return 1.0 - failed / attempted;
}

/** The simulated outcome of a run, compared exactly across runs. */
std::vector<double>
fingerprint(const core::RunStats &s)
{
    return {static_cast<double>(s.executedEvents),
            static_cast<double>(s.completions),
            static_cast<double>(s.point.samples),
            s.point.p50Ns,
            s.point.p99Ns,
            criticalP999Ns(s),
            s.point.achievedRps,
            static_cast<double>(s.fault.retryDrops),
            static_cast<double>(s.verifyFailures)};
}

/** Accumulates one mode's output: metrics and checks. */
class Report
{
  public:
    explicit Report(const Args &args, const Workload &w) : args_(args), w_(w)
    {}

    void
    metric(const std::string &name, double value, const std::string &unit,
           const std::string &note = "")
    {
        metrics_.push_back({name, value, unit});
        std::printf("  %-28s %14.6g %-10s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks_.push_back({name, ok});
        std::printf("  check %-34s %s  %s\n", name.c_str(),
                    ok ? "ok  " : "FAIL", detail.c_str());
        failed_ = failed_ || !ok;
    }

    /** A completed runExperiment counts as one operation. */
    void ran() { ++runs_; }

    /** Gate every run on its completion target and, when fault-free,
     *  on zero failed requests. */
    void
    checkRun(const core::ExperimentConfig &cfg, const core::RunStats &s,
             const std::string &what)
    {
        ran();
        const std::uint64_t target = cfg.warmupRpcs + cfg.measuredRpcs;
        if (s.completions < target) {
            check(what + ".completion_target", false,
                  sim::strfmt("%llu of %llu",
                              ull(s.completions),
                              ull(target)));
        }
        if (cfg.faults.empty() &&
            (s.verifyFailures != 0 || s.fault.retryDrops != 0)) {
            check(what + ".fault_free_failures", false,
                  sim::strfmt("verify %llu, dropped %llu",
                              ull(s.verifyFailures),
                              ull(s.fault.retryDrops)));
        }
    }

    /** Print the JSON line; returns the process exit code. */
    int
    finish() const
    {
        const sim::BuildInfo &bi = sim::buildInfo();
        std::string out = "{\"mode\":\"" + args_.mode + "\"";
        out += sim::strfmt(
            ",\"provenance\":{\"build_type\":\"%s\",\"git_sha\":\"%s\","
            "\"compiler\":\"%s\",\"nproc\":%u,\"seed\":%llu,"
            "\"workload\":\"%s\",\"warmup_rpcs\":%llu,"
            "\"measured_rpcs\":%llu,\"slo_warmup_rpcs\":%llu,"
            "\"slo_measured_rpcs\":%llu,"
            "\"slo_seeds\":%u,\"parallel_domains\":%u,"
            "\"scale\":%llu,\"load\":%.17g,\"arrival_rps\":%.17g}",
            bi.buildType, bi.gitSha, __VERSION__,
            std::thread::hardware_concurrency(),
            ull(args_.seed), w_.name.c_str(),
            ull(w_.config.warmupRpcs),
            ull(w_.config.measuredRpcs),
            ull(w_.sloWarmupRpcs), ull(w_.sloMeasuredRpcs), w_.sloSeeds,
            w_.config.parallelDomains,
            ull(args_.scale), w_.load,
            w_.config.arrivalRps);
        out += sim::strfmt(",\"runs\":%llu,\"metrics\":{",
                           ull(runs_));
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            out += sim::strfmt("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                               i == 0 ? "" : ",", metrics_[i].name.c_str(),
                               metrics_[i].value, metrics_[i].unit.c_str());
        }
        out += "},\"checks\":[";
        for (std::size_t i = 0; i < checks_.size(); ++i) {
            out += sim::strfmt("%s{\"name\":\"%s\",\"ok\":%s}",
                               i == 0 ? "" : ",", checks_[i].name.c_str(),
                               checks_[i].ok ? "true" : "false");
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return failed_ ? 1 : 0;
    }

  private:
    struct Check
    {
        std::string name;
        bool ok;
    };

    const Args &args_;
    const Workload &w_;
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
    std::uint64_t runs_ = 0;
    bool failed_ = false;
};

/**
 * One SLO search, advanced one probe at a time: probe the bracket ends,
 * then bisect kSloSteps times. stats::throughputUnderSlo interpolates
 * between the last passing and the first failing probe.
 */
class SloSearch
{
  public:
    SloSearch(const Workload &w, std::uint64_t seed)
        : w_(w), seed_(seed), lo_(w.sloLo), hi_(w.sloHi)
    {}

    bool done() const { return done_; }

    /** Run the next probe. */
    void
    step(Report &rep)
    {
        const double load = probes_ == 0   ? w_.sloLo
                            : probes_ == 1 ? w_.sloHi
                                           : 0.5 * (lo_ + hi_);
        const core::ExperimentConfig cfg = sloProbe(w_, load, seed_);
        const core::RunStats s = core::runExperiment(cfg);
        rep.checkRun(cfg, s, "slo_probe");
        std::printf("  probe seed %llu load %.4f: %.4g Mrps, p99 %.4g us\n",
                    ull(seed_), load, s.point.achievedRps / 1e6,
                    s.point.p99Ns / 1e3);
        points_.push_back(s.point);
        const bool meets = s.point.p99Ns <= w_.sloNs;
        ++probes_;
        if (probes_ == 1) {
            done_ = !meets; // a broken bracket fails mrps()'s check
        } else if (probes_ == 2) {
            done_ = meets;
        } else {
            (meets ? lo_ : hi_) = load;
            done_ = probes_ == 2 + kSloSteps;
        }
    }

    /** Throughput under the SLO, Mrps, once done(). */
    double
    mrps(Report &rep) const
    {
        stats::Series series;
        series.points = points_;
        std::sort(series.points.begin(), series.points.end(),
                  [](const stats::LoadPoint &a, const stats::LoadPoint &b) {
                      return a.offeredRps < b.offeredRps;
                  });
        const stats::SloResult r = stats::throughputUnderSlo(series, w_.sloNs);
        rep.check("slo.bracket", r.met && !r.unbounded,
                  sim::strfmt("seed %llu: SLO met at %.3g and missed at "
                              "%.3g of capacity",
                              ull(seed_), w_.sloLo, w_.sloHi));
        return r.throughputRps / 1e6;
    }

  private:
    const Workload &w_;
    std::uint64_t seed_;
    double lo_;
    double hi_;
    int probes_ = 0;
    bool done_ = false;
    std::vector<stats::LoadPoint> points_;
};

/** sim_slo_mrps: the median over the workload's SLO seeds. */
double
sloMrps(std::vector<SloSearch> &searches, Report &rep)
{
    std::vector<double> mrps;
    for (SloSearch &s : searches) {
        while (!s.done())
            s.step(rep);
        mrps.push_back(s.mrps(rep));
    }
    return median(mrps);
}

std::vector<SloSearch>
sloSearches(const Workload &w)
{
    std::vector<SloSearch> searches;
    for (unsigned i = 0; i < w.sloSeeds; ++i)
        searches.emplace_back(w, w.config.system.seed + kSloSeedStride * i);
    return searches;
}

/**
 * measure: every end-to-end metric. The first timed run comes first:
 * it warms the process up and sets peak_rss_mb (no later run is
 * larger, and the speed probe is not yet allocated). Then set-up runs,
 * timed runs (until their summed wall-clock reaches --seconds) and SLO
 * probes take turns, so the host-time samples spread over the whole
 * process instead of one stretch of a noisy host. Every host-time
 * sample is scaled to the reference host speed (SpeedProbe).
 */
void
runMeasure(const Args &args, const Workload &w, Report &rep)
{
    core::ExperimentConfig oneRpc = w.config;
    oneRpc.warmupRpcs = 0;
    oneRpc.measuredRpcs = 1;

    const core::RunStats first = core::runExperiment(w.config);
    rep.checkRun(w.config, first, "timed");
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    SpeedProbe probe;
    std::vector<double> setup;
    std::vector<double> timed;
    double timedWallS = 0.0;
    bool repeatsMatch = true;
    std::vector<SloSearch> searches = sloSearches(w);

    // Each turn runs whichever of the three lags furthest behind in
    // its share of the work, so all three spread over the whole run.
    const double probesTotal =
        static_cast<double>(searches.size() * (2 + kSloSteps));
    double probesDone = 0.0;
    for (;;) {
        const double setupShare =
            static_cast<double>(setup.size()) / kSetupReps;
        const bool timedDone =
            timed.size() >= kMaxTimedReps ||
            (timed.size() >= kMinTimedReps &&
             timedWallS >= static_cast<double>(args.seconds));
        const double timedShare =
            timedDone
                ? 1.0
                : std::min(timedWallS / static_cast<double>(args.seconds),
                           0.99);
        const auto next =
            std::find_if(searches.begin(), searches.end(),
                         [](const SloSearch &s) { return !s.done(); });
        const double probeShare =
            next == searches.end() ? 1.0 : probesDone / probesTotal;
        const double least = std::min({setupShare, timedShare, probeShare});
        if (least >= 1.0)
            break;
        if (setupShare == least) {
            core::RunStats s;
            setup.push_back(
                probe.time([&] { s = core::runExperiment(oneRpc); }));
            rep.checkRun(oneRpc, s, "setup");
        } else if (timedShare == least) {
            // Every repeat must reproduce the first exactly.
            const auto t0 = Clock::now();
            core::RunStats s;
            timed.push_back(
                probe.time([&] { s = core::runExperiment(w.config); }));
            timedWallS += secondsSince(t0);
            rep.checkRun(w.config, s, "timed");
            repeatsMatch =
                repeatsMatch && fingerprint(s) == fingerprint(first);
        } else {
            next->step(rep);
            probesDone += 1.0;
        }
    }
    rep.check("timed.repeats_identical", repeatsMatch,
              sim::strfmt("%zu runs", timed.size() + 1));

    if (w.checkWorkers > 0) {
        core::ExperimentConfig many = w.config;
        many.parallelDomains = w.checkWorkers;
        const core::RunStats s = core::runExperiment(many);
        rep.checkRun(many, s, "many_workers");
        rep.check("workers_agree", fingerprint(s) == fingerprint(first),
                  sim::strfmt("%u workers vs %u", w.checkWorkers,
                              w.config.parallelDomains));
    }

    const auto range = [](const std::vector<double> &v) {
        return sim::strfmt("%.3f..%.3f s",
                           *std::min_element(v.begin(), v.end()),
                           *std::max_element(v.begin(), v.end()));
    };
    rep.metric("setup_s", median(setup), "s",
               sim::strfmt("median of %zu one-RPC runs (%s)", setup.size(),
                           range(setup).c_str()));
    rep.metric("host_krps",
               static_cast<double>(first.completions) / median(timed) / 1e3,
               "krps",
               sim::strfmt("%llu completions, median of %zu runs (%s)",
                           ull(first.completions), timed.size(),
                           range(timed).c_str()));
    rep.metric("peak_rss_mb", peakRssMb, "MB");
    const std::string n =
        sim::strfmt("n=%llu", ull(first.point.samples));
    rep.metric("sim_p50_us", first.point.p50Ns / 1e3, "us", n);
    rep.metric("sim_p99_us", first.point.p99Ns / 1e3, "us", n);
    rep.metric("sim_p999_us", criticalP999Ns(first) / 1e3, "us", n);
    rep.metric("sim_slo_mrps", sloMrps(searches, rep), "Mrps",
               sim::strfmt("p99 <= %.1f us, median of %zu searches",
                           w.sloNs / 1e3, searches.size()));
    rep.metric("answered_frac", answeredFrac(first), "ratio",
               sim::strfmt("failed_frac %.6g", 1.0 - answeredFrac(first)));
}

/** trace: per-layer metrics of the traced run, checked against the
 *  untraced one. */
void
runTrace(const Args &args, const Workload &w, Report &rep)
{
    std::vector<double> untracedWall;
    std::vector<double> tracedWall;
    TracedRun traced;
    core::RunStats plain;
    for (int i = 0; i < kTracePairs; ++i) {
        // Alternate which of the pair runs first.
        for (int j = 0; j < 2; ++j) {
            if ((i + j) % 2 == 0) {
                const auto t0 = Clock::now();
                plain = core::runExperiment(w.config);
                untracedWall.push_back(secondsSince(t0));
                rep.checkRun(w.config, plain, "untraced");
            } else {
                traced = runTraced(w.config);
                tracedWall.push_back(traced.wallS);
                rep.ran();
            }
        }
        rep.check("trace.matches_runExperiment",
                  traced.executedEvents == plain.executedEvents &&
                      traced.completions == plain.completions &&
                      traced.p99Ns == plain.point.p99Ns,
                  sim::strfmt("events %llu/%llu completions %llu/%llu "
                              "p99 %.17g/%.17g",
                              ull(traced.executedEvents),
                              ull(plain.executedEvents),
                              ull(traced.completions),
                              ull(plain.completions),
                              traced.p99Ns, plain.point.p99Ns));
    }
    for (const Metric &m : traced.metrics)
        rep.metric(m.name, m.value, m.unit);
    const double untraced = median(untracedWall);
    rep.metric("trace.overhead_frac",
               (median(tracedWall) - untraced) / untraced, "ratio");

    // The model's one reference check, on herd_1x16 at this seed.
    const Workload herd = makeWorkload("herd_1x16", args.seed, args.scale);
    std::vector<SloSearch> searches = sloSearches(herd);
    rep.metric("model.slo_err_vs_paper",
               std::fabs(sloMrps(searches, rep) / kPaperHerdSloMrps - 1.0),
               "ratio", "herd_1x16 vs fig7a's 29 Mrps");
    if (!args.spans.empty())
        writeSpans(args.spans, traced.tracer.spans());
}

} // namespace

} // namespace rpcvalet::perfbench

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    using namespace rpcvalet::perfbench;
    const Args args = parseArgs(argc, argv);
    const sim::BuildInfo &bi = sim::buildInfo();
    if (std::string(bi.buildType) != "Release" || sanitizedBuild()) {
        std::fprintf(stderr,
                     "perfbench: refusing host metrics from a '%s'%s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "sanitizers\n",
                     bi.buildType, sanitizedBuild() ? " sanitizer" : "");
        return 2;
    }
    const Workload w = makeWorkload(args.workload, args.seed, args.scale);
    std::printf("perfbench %s: %s seed=%llu load=%.2f (%.4g rps) "
                "warmup=%llu measured=%llu domains=%u\n",
                args.mode.c_str(), w.name.c_str(),
                ull(args.seed), w.load,
                w.config.arrivalRps,
                ull(w.config.warmupRpcs),
                ull(w.config.measuredRpcs),
                w.config.parallelDomains);
    Report rep(args, w);
    if (args.mode == "measure")
        runMeasure(args, w, rep);
    else
        runTrace(args, w, rep);
    return rep.finish();
}
