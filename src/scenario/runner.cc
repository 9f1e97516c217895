#include "scenario/runner.hh"

#include <algorithm>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "core/parallel.hh"
#include "core/run_stats_fields.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "stats/metrics.hh"

namespace rpcvalet::scenario {

namespace {

using Labels = stats::MetricsExporter::Labels;

void
save(const stats::JsonWriter &w, const std::string &path)
{
    if (!w.writeFile(path)) {
        sim::fatal(sim::strfmt("scenario output: cannot write '%s'",
                               path.c_str()));
    }
}

void
writePointJson(const std::string &path, const Scenario &scn,
               const PointResult &res, const std::string &timestamp)
{
    stats::JsonWriter w;
    w.beginObject();
    w.value("scenario", scn.name);
    w.value("point", res.point.index);
    writeMeta(w, timestamp);
    writeAxes(w, res.point);
    w.value("load_fraction", res.point.loadFraction);
    core::JsonFields fields(w);
    core::forEachField(fields, res.stats);
    w.beginArray("slo");
    for (const SloOutcome &so : res.slos) {
        w.beginObject();
        w.value("class", so.className);
        w.value("bound_ns", so.boundNs);
        w.value("p99_ns", so.p99Ns);
        w.value("found", so.classFound);
        w.value("met", so.met);
        w.end();
    }
    w.end();
    w.end();
    save(w, path);
}

void
writeSummaryJson(const std::string &path, const ScenarioResult &result,
                 const std::string &timestamp)
{
    const Scenario &scn = result.scenario;
    stats::JsonWriter w;
    w.beginObject();
    w.value("scenario", scn.name);
    w.value("source", scn.source);
    writeMeta(w, timestamp);
    w.value("points", result.points.size());
    w.value("slos_met", result.slosMet);
    w.beginArray("results");
    for (const PointResult &res : result.points) {
        bool point_slos_met = true;
        for (const SloOutcome &so : res.slos)
            point_slos_met = point_slos_met && so.met;
        w.beginObject();
        w.value("point", res.point.index);
        writeAxes(w, res.point);
        w.value("offered_rps", res.stats.point.offeredRps);
        w.value("achieved_rps", res.stats.point.achievedRps);
        w.value("p99_ns", res.stats.point.p99Ns);
        w.value("completions", res.stats.completions);
        w.value("slos_met", point_slos_met);
        w.end();
    }
    w.end();
    w.end();
    save(w, path);
}

/** Renders core::forEachField into Prometheus samples (the rules are
 *  in core/run_stats_fields.hh). */
class PromFields
{
  public:
    PromFields(stats::MetricsExporter &mx, Labels labels)
        : mx_(mx), labels_(std::move(labels))
    {
    }

    template <typename T>
    void
    field(const T &value, const char *, const char *prom,
          const char *help, core::FieldKind kind = core::FieldKind::Scalar,
          double quantile = 0.0)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            if (kind == core::FieldKind::Key) {
                labels_.back().second = value;
            } else {
                labels_.emplace_back("value", value);
                sample(prom, help, core::FieldKind::Scalar, 1.0);
                labels_.pop_back();
            }
        } else if (kind == core::FieldKind::Key) {
            labels_.back().second = std::to_string(value);
        } else if (kind == core::FieldKind::Quantile) {
            quantiles_.emplace_back(quantile, static_cast<double>(value));
        } else {
            sample(prom, help, kind, static_cast<double>(value));
        }
    }

    template <typename Fn>
    void
    object(const char *, bool prom, Fn &&body)
    {
        muted_ += prom ? 0 : 1;
        body();
        muted_ -= prom ? 0 : 1;
    }

    template <typename Fn>
    void
    list(const char *, const char *label, std::size_t n, Fn &&element)
    {
        for (std::size_t i = 0; i < n; ++i) {
            labels_.emplace_back(label, std::to_string(i));
            element(i);
            labels_.pop_back();
        }
    }

    template <typename T>
    void
    values(const std::vector<T> &xs, const char *, const char *prom,
           const char *help, const char *label)
    {
        list(nullptr, label, xs.size(), [&](std::size_t i) {
            sample(prom, help, core::FieldKind::Scalar,
                   static_cast<double>(xs[i]));
        });
    }

  private:
    void
    sample(const std::string &name, const char *help, core::FieldKind kind,
           double value)
    {
        if (kind == core::FieldKind::Mean) {
            mean_ = value;
        } else if (kind == core::FieldKind::Count) {
            if (muted_ == 0) {
                mx_.summary(name, help, quantiles_, mean_ * value,
                            static_cast<std::uint64_t>(value), labels());
            }
            quantiles_.clear();
        } else if (muted_ > 0) {
            return;
        } else if (name.size() > 6 &&
                   name.compare(name.size() - 6, 6, "_total") == 0) {
            mx_.counter(name, help, value, labels());
        } else {
            mx_.gauge(name, help, value, labels());
        }
    }

    /** The current labels minus empty-valued ones (an inactive axis,
     *  say). */
    Labels
    labels() const
    {
        Labels out;
        for (const auto &label : labels_) {
            if (!label.second.empty())
                out.push_back(label);
        }
        return out;
    }

    stats::MetricsExporter &mx_;
    Labels labels_;
    /** Nesting depth of objects left out of Prometheus. */
    int muted_ = 0;
    /** The summary being assembled until its Count part arrives. */
    std::vector<std::pair<double, double>> quantiles_;
    double mean_ = 0.0;
};

/** One label set per matrix point: scenario, point and every axis,
 *  optional axes last. */
void
appendPointMetrics(stats::MetricsExporter &mx, const Scenario &scn,
                   const PointResult &res)
{
    Labels base{{"scenario", scn.name},
                {"point", std::to_string(res.point.index)}};
    for (const bool optional : {false, true}) {
        for (const Axis &axis : axes()) {
            if (axis.optional == optional)
                base.emplace_back(axis.key, res.point.*axis.value);
        }
    }
    PromFields prom(mx, std::move(base));
    core::forEachField(prom, res.stats);
    prom.list("slo", "class", res.slos.size(), [&](std::size_t i) {
        prom.field(res.slos[i].className, "class", nullptr, nullptr,
                   core::FieldKind::Key);
        prom.field(res.slos[i].met, "met", "rpcvalet_slo_met",
                   "1 when the class's measured p99 is within its "
                   "declared bound, else 0.");
    });
}

std::vector<SloOutcome>
evaluateSlos(const Scenario &scn, const core::RunStats &st)
{
    std::vector<SloOutcome> out;
    out.reserve(scn.slos.size());
    for (const SloBound &bound : scn.slos) {
        SloOutcome so;
        so.className = bound.className;
        so.boundNs = bound.boundNs;
        for (const core::ClassStats &cs : st.perClass) {
            if (cs.name != bound.className)
                continue;
            so.classFound = true;
            so.p99Ns = cs.p99Ns;
            so.met = cs.p99Ns <= bound.boundNs;
            break;
        }
        out.push_back(std::move(so));
    }
    return out;
}

} // namespace

void
writeAxes(stats::JsonWriter &w, const AxisValues &values, bool flags_only)
{
    for (const Axis &axis : axes()) {
        if (flags_only && !axis.benchFlag)
            continue;
        const std::string &value = values.*axis.value;
        if (!axis.numeric)
            w.value(axis.key, value);
        else
            w.value(axis.key, value.empty() ? 0ull : std::stoull(value));
    }
}

void
writeMeta(stats::JsonWriter &w, const std::string &timestamp)
{
    const sim::BuildInfo &bi = sim::buildInfo();
    w.beginObject("meta");
    w.value("build_type", bi.buildType);
    w.value("git_sha", bi.gitSha);
    w.value("timestamp", timestamp);
    w.end();
}

ScenarioResult
runScenario(const Scenario &scn)
{
    const std::vector<ScenarioPoint> points = expandMatrix(scn);
    RV_ASSERT(!points.empty(), "scenario expanded to an empty matrix");

    ScenarioResult result;
    result.scenario = scn;
    result.points.resize(points.size());

    // Points are independent simulations, fanned out over the shared
    // point-execution pool (same as core::runSweep). Results land by
    // index, so output order (and content) is identical regardless of
    // thread count. scn.threads is the total budget: points that
    // themselves run parallel domains get proportionally fewer
    // concurrent siblings.
    unsigned max_domains = 0;
    for (const ScenarioPoint &pt : points)
        max_domains =
            std::max(max_domains, pt.config.parallelDomains);
    core::runIndexedParallel(
        points.size(),
        core::pointConcurrency(scn.threads, max_domains),
        [&](std::size_t i) {
            PointResult res;
            res.point = points[i];
            res.stats = core::runExperiment(points[i].config);
            res.slos = evaluateSlos(scn, res.stats);
            result.points[i] = std::move(res);
        });

    for (const PointResult &res : result.points) {
        for (const SloOutcome &so : res.slos)
            result.slosMet = result.slosMet && so.met;
    }
    return result;
}

std::vector<std::string>
writeScenarioOutputs(const ScenarioResult &result)
{
    const Scenario &scn = result.scenario;
    std::vector<std::string> written;
    if (!scn.writeJson && !scn.writePrometheus)
        return written;

    std::error_code ec;
    std::filesystem::create_directories(scn.outputDir, ec);
    if (ec) {
        sim::fatal(sim::strfmt(
            "scenario output: cannot create directory '%s': %s",
            scn.outputDir.c_str(), ec.message().c_str()));
    }

    // One timestamp for the whole run: the artifacts of a scenario
    // form one consistent set.
    const std::string timestamp = sim::iso8601UtcNow();

    if (scn.writeJson) {
        for (const PointResult &res : result.points) {
            const std::string path = sim::strfmt(
                "%s/point_%03zu.json", scn.outputDir.c_str(),
                res.point.index);
            writePointJson(path, scn, res, timestamp);
            written.push_back(path);
        }
        const std::string summary = scn.outputDir + "/summary.json";
        writeSummaryJson(summary, result, timestamp);
        written.push_back(summary);
    }

    if (scn.writePrometheus) {
        stats::MetricsExporter mx;
        for (const PointResult &res : result.points)
            appendPointMetrics(mx, scn, res);
        const std::string path = scn.outputDir + "/metrics.prom";
        mx.writeFile(path);
        written.push_back(path);
    }
    return written;
}

} // namespace rpcvalet::scenario
