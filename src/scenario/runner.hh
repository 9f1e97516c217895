/**
 * @file
 * Scenario execution: run an expanded scenario matrix and publish the
 * results.
 *
 * runScenario() executes every matrix point (optionally across a
 * worker pool — points are independent simulations, so results are
 * identical regardless of thread count) and evaluates the scenario's
 * [slo] declarations against each point's measured per-class p99.
 * writeScenarioOutputs() renders the results under the scenario's
 * output directory:
 *
 *   point_NNN.json   one file per matrix point: axis values, every
 *                    RunStats field, SLO verdicts
 *   summary.json     the whole run: build/git/timestamp provenance
 *                    stamp, every point's key numbers, SLO verdicts
 *   metrics.prom     Prometheus text exposition across all points
 *                    (stats::MetricsExporter), labeled by axis values
 *
 * The RunStats parts of point_NNN.json and metrics.prom are rendered
 * from the one field description in core/run_stats_fields.hh, which
 * lists every key and metric family.
 *
 * The provenance stamp (build type, git SHA, ISO-8601 UTC timestamp)
 * comes from sim/build_info.hh, so every artifact names the exact
 * build that produced it.
 */

#ifndef RPCVALET_SCENARIO_RUNNER_HH
#define RPCVALET_SCENARIO_RUNNER_HH

#include <string>
#include <vector>

#include "scenario/scenario.hh"
#include "stats/json.hh"

namespace rpcvalet::scenario {

/** One [slo] declaration checked against one point's measurements. */
struct SloOutcome
{
    /** Declared request-class name. */
    std::string className;
    /** Declared p99 bound, ns. */
    double boundNs = 0.0;
    /** Measured p99 of that class, ns (0 when the class is absent). */
    double p99Ns = 0.0;
    /** Whether the point's workload declares the class at all. */
    bool classFound = false;
    /** measured p99 <= bound (false when the class is missing). */
    bool met = false;
};

/** One executed matrix point with its SLO verdicts. */
struct PointResult
{
    ScenarioPoint point;
    core::RunStats stats;
    std::vector<SloOutcome> slos;
};

/** A fully executed scenario. */
struct ScenarioResult
{
    Scenario scenario;
    /** Results in canonical matrix order (ScenarioPoint::index). */
    std::vector<PointResult> points;
    /** Every declared SLO met on every point. */
    bool slosMet = true;
};

/** Execute the matrix; fatal on an empty one (parser prevents it). */
ScenarioResult runScenario(const Scenario &scn);

/**
 * Write the scenario's artifacts (JSON and/or Prometheus metrics, per
 * its [output] flags) into scenario.outputDir, creating the directory
 * if needed. Returns the paths written. Fatal on I/O failure.
 */
std::vector<std::string> writeScenarioOutputs(const ScenarioResult &result);

/**
 * Write one JSON member per axis (see axes()) from @p values: numeric
 * axes as numbers, the rest as strings; with @p flags_only, only the
 * axes a bench flag sets.
 */
void writeAxes(stats::JsonWriter &w, const AxisValues &values,
               bool flags_only = false);

/** Write the "meta" provenance object (build type, git SHA, and
 *  @p timestamp) every JSON artifact carries. */
void writeMeta(stats::JsonWriter &w, const std::string &timestamp);

} // namespace rpcvalet::scenario

#endif // RPCVALET_SCENARIO_RUNNER_HH
