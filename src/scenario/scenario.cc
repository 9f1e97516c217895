#include "scenario/scenario.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "ni/dispatch_policy.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

namespace rpcvalet::scenario {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Split a '|'-separated list, trimming each entry; empty entries are
 *  fatal (they are always a typo, e.g. "a || b" or a trailing '|'). */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t bar = value.find('|', start);
        const std::string item = trim(
            bar == std::string::npos ? value.substr(start)
                                     : value.substr(start, bar - start));
        if (item.empty())
            sim::fatal("empty list entry ('|' needs a value on each side)");
        out.push_back(item);
        if (bar == std::string::npos)
            return out;
        start = bar + 1;
    }
}

bool
parseBool(const std::string &value)
{
    if (value == "true" || value == "1" || value == "yes" ||
        value == "on")
        return true;
    if (value == "false" || value == "0" || value == "no" ||
        value == "off")
        return false;
    sim::fatal("'" + value + "' is not a boolean (true/false)");
    return false; // unreachable
}

/** Instantiate @p Registry's component for @p text, so a bad spec
 *  dies inside the caller's ErrorContext. */
template <typename Registry>
void
makeSpec(const std::string &text)
{
    (void)Registry::instance().make(typename Registry::Spec(text));
}

/** File stem ("out/herd.scn" -> "herd") for the default name. */
std::string
stemOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
    std::size_t end = path.find_last_of('.');
    if (end == std::string::npos || end <= begin)
        end = path.size();
    return path.substr(begin, end - begin);
}

/** Line-by-line scenario parser; all state lives here. */
class Parser
{
  public:
    Parser(const std::string &source, Scenario &out)
        : source_(source), out_(out)
    {
    }

    void
    feed(const std::string &raw, int line)
    {
        line_ = line;
        const std::string text = trim(raw);
        if (text.empty() || text[0] == '#' || text[0] == ';')
            return;
        if (text.front() == '[') {
            if (text.back() != ']')
                die("malformed section header '" + text + "'");
            section_ = trim(text.substr(1, text.size() - 2));
            if (section_ != "experiment" && section_ != "cluster" &&
                section_ != "connections" && section_ != "chaos" &&
                section_ != "sweep" && section_ != "slo" &&
                section_ != "output") {
                die("unknown section '[" + section_ +
                    "]' (expected experiment, cluster, connections, "
                    "chaos, sweep, slo, or output)");
            }
            return;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            die("expected 'key = value', got '" + text + "'");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key.empty())
            die("empty key before '='");
        if (value.empty())
            die("key '" + key + "' has an empty value");
        if (section_.empty())
            die("'" + key + "' appears before any [section] header");

        // Every value is applied (and registry-validated) inside a
        // context frame naming file, line, and the offending token.
        sim::ErrorContext ctx(sim::strfmt("%s:%d (%s = %s)",
                                          source_.c_str(), line_,
                                          key.c_str(), value.c_str()));
        if (section_ == "connections")
            connSectionSeen_ = true;
        for (const Axis &axis : axes()) {
            if (key != axis.key)
                continue;
            if (section_ == "sweep") {
                for (const std::string &item : splitList(value)) {
                    axis.validate(item);
                    (out_.*axis.sweep).push_back(item);
                }
                return;
            }
            if (section_ == axis.section) {
                axis.validate(value);
                axis.apply(value, out_.base);
                return;
            }
        }
        if (section_ == "experiment")
            experimentKey(key, value);
        else if (section_ == "cluster")
            clusterKey(key, value);
        else if (section_ == "connections")
            connectionsKey(key, value);
        else if (section_ == "chaos")
            chaosKey(key, value);
        else if (section_ == "sweep")
            sweepKey(key, value);
        else if (section_ == "slo")
            out_.slos.push_back(
                SloBound{key, sim::toNs(sim::parseTick(value))});
        else
            outputKey(key, value);
    }

    void
    finish()
    {
        const bool has_load = !out_.loadFractions.empty();
        const bool has_rps = !out_.absoluteRps.empty();
        if (has_load && has_rps) {
            sim::fatal(source_ + ": [sweep] declares both 'load' and "
                       "'rps' — the axes are exclusive");
        }
        if (!has_load && !has_rps) {
            sim::fatal(source_ + ": no load axis — add 'load = ...' "
                       "(capacity fractions) or 'rps = ...' (absolute "
                       "rates) to [sweep]");
        }
        if (!out_.schedulers.empty() &&
            !out_.base.connections.active()) {
            // Sweeping schedulers with no client population would
            // compare N copies of the legacy path.
            sim::fatal(source_ + ": [sweep] 'scheduler' axis needs an "
                       "active [connections] section ('clients = N')");
        }
        if (connSectionSeen_ && !out_.base.connections.active()) {
            // The section only means something with a population: a
            // scheduler/qp tweak with no clients would silently run
            // the legacy path.
            sim::fatal(source_ + ": [connections] section without a "
                       "'clients = N' key — the subsystem stays off");
        }
        if (out_.base.connections.active()) {
            sim::ErrorContext ctx(source_ + ": [connections]");
            out_.base.connections.validate();
        }
        if (out_.base.retry.active()) {
            // Cross-section check: an active [chaos] retry policy
            // needs the [cluster] timeout its sweep triggers off.
            sim::ErrorContext ctx(source_ + ": [chaos] retry policy");
            out_.base.retry.validate(out_.base.cluster.requestTimeout);
        }
    }

  private:
    [[noreturn]] void
    die(const std::string &msg) const
    {
        sim::fatal(
            sim::strfmt("%s:%d: %s", source_.c_str(), line_,
                        msg.c_str()));
    }

    /** Die on an unknown key; @p expected lists the section's keys
     *  other than its axes'. */
    [[noreturn]] void
    unknownKey(const std::string &key,
               std::vector<std::string> expected) const
    {
        for (const Axis &axis : axes()) {
            if (section_ == axis.section || section_ == "sweep")
                expected.push_back(axis.key);
        }
        std::string list;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            if (i > 0)
                list += i + 1 == expected.size() ? ", or " : ", ";
            list += expected[i];
        }
        die("unknown [" + section_ + "] key '" + key + "' (expected " +
            list + ")");
    }

    void
    experimentKey(const std::string &key, const std::string &value)
    {
        if (key == "name") {
            out_.name = value;
        } else if (key == "mode") {
            out_.base.system.mode = ni::dispatchModeFromName(value);
        } else if (key == "warmup") {
            out_.base.warmupRpcs = sim::parseUint(value);
        } else if (key == "measured") {
            const std::uint64_t n = sim::parseUint(value);
            if (n == 0)
                sim::fatal("'measured' must be at least 1");
            out_.base.measuredRpcs = n;
        } else if (key == "seed") {
            out_.base.system.seed = sim::parseUint(value);
        } else if (key == "turnaround") {
            out_.base.clientTurnaround = sim::parseTick(value);
        } else if (key == "parallel_domains") {
            const std::uint64_t n = sim::parseUint(value);
            if (n > 1024)
                die("'parallel_domains' must be at most 1024");
            out_.base.parallelDomains = static_cast<unsigned>(n);
        } else {
            unknownKey(key, {"name", "mode", "warmup", "measured", "seed",
                             "turnaround", "parallel_domains"});
        }
    }

    void
    clusterKey(const std::string &key, const std::string &value)
    {
        if (key == "shards") {
            out_.base.cluster.shards =
                static_cast<std::uint32_t>(sim::parseUint(value));
        } else if (key == "timeout") {
            out_.base.cluster.requestTimeout = sim::parseTick(value);
        } else if (key == "fail_threshold") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1)
                sim::fatal("'fail_threshold' must be at least 1");
            out_.base.cluster.failThreshold =
                static_cast<std::uint32_t>(n);
        } else if (key == "recovery_after") {
            out_.base.cluster.recoveryAfter = sim::parseTick(value);
        } else if (key == "sweep_interval") {
            const sim::Tick t = sim::parseTick(value);
            if (t == 0)
                sim::fatal("'sweep_interval' must be > 0 (omit the key "
                           "to derive it from the timeout)");
            out_.base.cluster.sweepInterval = t;
        } else {
            unknownKey(key, {"shards", "timeout", "fail_threshold",
                             "recovery_after", "sweep_interval"});
        }
    }

    void
    connectionsKey(const std::string &key, const std::string &value)
    {
        if (key == "nodes") {
            // Messaging-domain size: emulated endpoints the logical
            // clients are multiplexed onto, NOT the server count.
            const std::uint64_t n = sim::parseUint(value);
            if (n < 2 || n > 100000)
                sim::fatal("'nodes' must be in [2, 100000]");
            out_.base.system.domain.numNodes =
                static_cast<std::uint32_t>(n);
        } else if (key == "clients") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1 || n > (1u << 24))
                sim::fatal("'clients' must be in [1, 2^24]");
            out_.base.connections.numClients =
                static_cast<std::uint32_t>(n);
        } else if (key == "qp_capacity") {
            out_.base.connections.qpCapacity =
                static_cast<std::uint32_t>(sim::parseUint(value));
        } else if (key == "qp_cold") {
            out_.base.connections.qpColdNs =
                sim::toNs(sim::parseTick(value));
        } else {
            unknownKey(key, {"nodes", "clients", "qp_capacity", "qp_cold"});
        }
    }

    void
    chaosKey(const std::string &key, const std::string &value)
    {
        if (key == "fault") {
            // Repeatable; each line adds one spec. Instantiating
            // through the registry validates the name and every
            // shape-independent parameter right here, inside the
            // file:line context. Shape checks (node/core ranges) run
            // when the point resolves, with the spec in the message.
            const fault::FaultSpec spec(value);
            (void)fault::FaultRegistry::instance().make(spec);
            out_.base.faults.push_back(spec);
        } else if (key == "retry_max_attempts") {
            out_.base.retry.maxAttempts =
                static_cast<std::uint32_t>(sim::parseUint(value));
        } else if (key == "retry_backoff") {
            out_.base.retry.baseBackoff = sim::parseTick(value);
        } else if (key == "retry_multiplier") {
            const double m = sim::parseDouble(value);
            if (!(m >= 1.0) || std::isinf(m))
                sim::fatal("'retry_multiplier' must be >= 1 and finite");
            out_.base.retry.multiplier = m;
        } else if (key == "retry_jitter") {
            const double j = sim::parseDouble(value);
            if (!(j >= 0.0 && j <= 1.0))
                sim::fatal("'retry_jitter' must be in [0, 1]");
            out_.base.retry.jitter = j;
        } else if (key == "hedge_after") {
            out_.base.retry.hedgeAfter = sim::parseTick(value);
        } else {
            unknownKey(key, {"fault", "retry_max_attempts", "retry_backoff",
                             "retry_multiplier", "retry_jitter",
                             "hedge_after"});
        }
    }

    void
    sweepKey(const std::string &key, const std::string &value)
    {
        if (key == "load") {
            for (const std::string &item : splitList(value)) {
                const double f = sim::parseDouble(item);
                if (!(f > 0.0) || f > 4.0)
                    sim::fatal("load fraction '" + item +
                               "' must be in (0, 4]");
                out_.loadFractions.push_back(f);
            }
        } else if (key == "rps") {
            for (const std::string &item : splitList(value)) {
                const double r = sim::parseDouble(item);
                if (!(r > 0.0) || std::isinf(r))
                    sim::fatal("rps '" + item +
                               "' must be positive and finite");
                out_.absoluteRps.push_back(r);
            }
        } else if (key == "threads") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1 || n > 1024)
                sim::fatal("'threads' must be in [1, 1024]");
            out_.threads = static_cast<unsigned>(n);
        } else {
            unknownKey(key, {"load", "rps", "threads"});
        }
    }

    void
    outputKey(const std::string &key, const std::string &value)
    {
        if (key == "dir")
            out_.outputDir = value;
        else if (key == "json")
            out_.writeJson = parseBool(value);
        else if (key == "prometheus")
            out_.writePrometheus = parseBool(value);
        else
            unknownKey(key, {"dir", "json", "prometheus"});
    }

    std::string source_;
    Scenario &out_;
    std::string section_;
    int line_ = 0;
    bool connSectionSeen_ = false;
};

Scenario
parseLines(std::istream &in, const std::string &source,
           const std::string &default_name)
{
    Scenario scn;
    scn.source = source;
    scn.name = default_name;
    Parser parser(source, scn);
    std::string line;
    int number = 0;
    while (std::getline(in, line))
        parser.feed(line, ++number);
    parser.finish();
    return scn;
}

} // namespace

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        sim::fatal(
            sim::strfmt("cannot open scenario file '%s'", path.c_str()));
    }
    return parseLines(f, path, stemOf(path));
}

Scenario
parseScenarioText(const std::string &text, const std::string &source)
{
    std::istringstream in(text);
    return parseLines(in, source, source);
}

const std::vector<Axis> &
axes()
{
    using Config = core::ExperimentConfig;
    static const std::vector<Axis> table{
        {"workload", "experiment", &Scenario::workloads, &AxisValues::workload,
         false, false, true, &makeSpec<app::WorkloadRegistry>,
         [](const std::string &text, Config &cfg) {
             cfg.workload = app::WorkloadSpec(text);
         },
         [](const Config &cfg) { return cfg.workload.toString(); }},
        {"policy", "experiment", &Scenario::policies, &AxisValues::policy,
         false, false, true, &makeSpec<ni::PolicyRegistry>,
         [](const std::string &text, Config &cfg) {
             cfg.system.policy = ni::PolicySpec(text);
         },
         [](const Config &cfg) { return cfg.system.policy.toString(); }},
        {"arrival", "experiment", &Scenario::arrivals, &AxisValues::arrival,
         false, false, true,
         [](const std::string &text) {
             (void)net::ArrivalRegistry::instance().make(
                 net::ArrivalSpec(text), /*rate_rps=*/1e6);
         },
         [](const std::string &text, Config &cfg) {
             cfg.arrival = net::ArrivalSpec(text);
         },
         [](const Config &cfg) { return cfg.arrival.toString(); }},
        {"router", "cluster", &Scenario::routers, &AxisValues::router,
         false, false, true, &makeSpec<cluster::RouterRegistry>,
         [](const std::string &text, Config &cfg) {
             cfg.cluster.router = cluster::RouterSpec(text);
         },
         [](const Config &cfg) { return cfg.cluster.router.toString(); }},
        {"scheduler", "connections", &Scenario::schedulers,
         &AxisValues::scheduler, false, true, false,
         &makeSpec<conn::ConnRegistry>,
         [](const std::string &text, Config &cfg) {
             cfg.connections.scheduler = conn::ConnSpec(text);
         },
         [](const Config &cfg) {
             return cfg.connections.active()
                        ? cfg.connections.schedulerSpec().toString()
                        : std::string();
         }},
        {"nodes", "cluster", &Scenario::nodeCounts, &AxisValues::nodes,
         true, false, true,
         [](const std::string &text) {
             const std::uint64_t n = sim::parseUint(text);
             if (n < 1 || n > 64)
                 sim::fatal("node count '" + text + "' must be in [1, 64]");
             if (text != std::to_string(n))
                 sim::fatal("node count '" + text + "' is not a plain "
                            "integer");
         },
         [](const std::string &text, Config &cfg) {
             cfg.cluster.numServerNodes =
                 static_cast<std::uint32_t>(sim::parseUint(text));
         },
         [](const Config &cfg) {
             return std::to_string(cfg.cluster.numServerNodes);
         }},
    };
    return table;
}

bool
parseAxisFlag(const std::string &arg, AxisValues &values)
{
    for (const Axis &axis : axes()) {
        const std::string prefix = std::string("--") + axis.key + "=";
        if (!axis.benchFlag || arg.compare(0, prefix.size(), prefix) != 0)
            continue;
        const sim::ErrorContext where(arg);
        const std::string text = arg.substr(prefix.size());
        axis.validate(text);
        values.*axis.value = text;
        return true;
    }
    return false;
}

std::vector<ScenarioPoint>
expandMatrix(const Scenario &scn)
{
    // An axis without a [sweep] list keeps the base value, marked by
    // an empty string so the point's config leaves the base field
    // untouched: the single-point bit-identity guarantee.
    const std::vector<Axis> &all = axes();
    std::vector<std::vector<std::string>> lists;
    for (const Axis &axis : all) {
        const std::vector<std::string> &sweep = scn.*axis.sweep;
        lists.push_back(sweep.empty() ? std::vector<std::string>{""}
                                      : sweep);
    }
    const bool fractional = !scn.loadFractions.empty();
    const auto &loads =
        fractional ? scn.loadFractions : scn.absoluteRps;

    // Capacity depends only on the base system and the workload.
    std::map<std::string, double> capacities;
    std::vector<ScenarioPoint> points;
    std::vector<std::size_t> digit(all.size(), 0);
    for (;;) {
        core::ExperimentConfig cfg = scn.base;
        for (std::size_t a = 0; a < all.size(); ++a) {
            const std::string &value = lists[a][digit[a]];
            if (!value.empty())
                all[a].apply(value, cfg);
        }
        double capacity = 0.0;
        if (fractional) {
            const auto [it, fresh] =
                capacities.try_emplace(cfg.workload.toString(), 0.0);
            if (fresh) {
                it->second = core::estimateCapacityRps(scn.base.system,
                                                       cfg.workload);
            }
            capacity = it->second;
        }
        for (const double l : loads) {
            ScenarioPoint pt;
            pt.index = points.size();
            pt.config = cfg;
            pt.config.arrivalRps =
                fractional ? l * capacity * cfg.cluster.numServerNodes
                           : l;
            pt.loadFraction = fractional ? l : 0.0;
            for (const Axis &axis : all)
                pt.*axis.value = axis.canonical(pt.config);
            points.push_back(std::move(pt));
        }
        // Odometer step: the last axis turns fastest (load innermost).
        std::size_t a = all.size();
        while (a > 0 && ++digit[a - 1] == lists[a - 1].size())
            digit[--a] = 0;
        if (a == 0)
            return points;
    }
}

} // namespace rpcvalet::scenario
