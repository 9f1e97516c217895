/**
 * @file
 * Schema coverage of the scenario outputs: a RunStats filled by hand
 * with a distinct sentinel in every field must show each sentinel in
 * both point_000.json and metrics.prom (the two renderers of
 * core/run_stats_fields.hh), and strings must be JSON-escaped by the
 * shared writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_stats_fields.hh"
#include "scenario/runner.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace {

using namespace rpcvalet;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Hands out distinct sentinels and remembers their text. */
struct Sentinels
{
    std::uint64_t next = 1000000;
    /** Text that must appear in both outputs. */
    std::vector<std::string> both;

    std::uint64_t
    u()
    {
        both.push_back(std::to_string(++next));
        return next;
    }

    /** x.5 values print identically under %.10g and %.17g. */
    double
    d()
    {
        const double v = static_cast<double>(++next) + 0.5;
        both.push_back(sim::strfmt("%.1f", v));
        return v;
    }

    std::string
    s(const std::string &stem)
    {
        both.push_back(stem + "-sentinel");
        return both.back();
    }
};

/** A RunStats with every field set to a sentinel (bools true). */
core::RunStats
sentinelStats(Sentinels &x, std::vector<std::string> &sums)
{
    core::RunStats st;
    // Summary means reach Prometheus only as sum = mean x count.
    auto mean_then_count = [&](double &mean, std::uint64_t &count) {
        mean = static_cast<double>(++x.next) + 0.5;
        count = x.u();
        sums.push_back(sim::strfmt(
            "%.17g", mean * static_cast<double>(count)));
    };
    st.workload = x.s("app");
    st.router = x.s("router");
    st.point.offeredRps = x.d();
    st.point.achievedRps = x.d();
    st.point.p50Ns = x.d();
    st.point.p90Ns = x.d();
    st.point.p99Ns = x.d();
    mean_then_count(st.point.meanNs, st.point.samples);
    st.meanServiceNs = x.d();
    st.completions = x.u();
    st.criticalCompletions = x.u();
    st.replySlotStalls = x.u();
    st.flowControlDeferrals = x.u();
    st.verifyFailures = x.u();
    st.simulatedUs = x.d();
    st.executedEvents = x.u();
    st.perCoreServed = {x.u(), x.u()};
    st.recvSlotPeak = static_cast<std::uint32_t>(x.u());
    st.rendezvousRequests = x.u();
    st.preemptionYields = x.u();
    for (core::ComponentStats *c :
         {&st.breakdown.reassembly, &st.breakdown.dispatch,
          &st.breakdown.queueWait, &st.breakdown.service}) {
        c->meanNs = x.d();
        c->p99Ns = x.d();
    }

    core::ClassStats cs;
    cs.name = x.s("class");
    cs.latencyCritical = true;
    cs.sloNs = x.d();
    cs.achievedRps = x.d();
    cs.p50Ns = x.d();
    cs.p99Ns = x.d();
    cs.p999Ns = x.d();
    cs.sloAttainment = x.d();
    mean_then_count(cs.meanNs, cs.completions);
    st.perClass.push_back(cs);

    core::NodeStats ns;
    ns.nodeId = static_cast<proto::NodeId>(x.u());
    ns.failed = true;
    ns.served = x.u();
    ns.criticalCompletions = x.u();
    ns.achievedRps = x.d();
    ns.p50Ns = x.d();
    ns.p99Ns = x.d();
    mean_then_count(ns.meanNs, ns.samples);
    ns.perCoreServed = {x.u(), x.u()};
    st.perNode.push_back(ns);

    st.requestTimeouts = x.u();
    st.failoverReroutes = x.u();
    st.staleReplies = x.u();
    st.nodesDown = static_cast<std::uint32_t>(x.u());
    st.nestedRpcsSent = x.u();
    st.chainsCompleted = x.u();

    core::FaultStats &f = st.fault;
    f.retries = x.u();
    f.retryDrops = x.u();
    f.hedgesSent = x.u();
    f.hedgesWon = x.u();
    f.duplicateReplies = x.u();
    f.packetsDropped = x.u();
    f.packetsDelayed = x.u();
    f.packetsCorrupted = x.u();
    f.corruptionsDetected = x.u();
    f.replySlotEvictions = x.u();
    f.degradedP99Ns = x.d();
    f.degradedSamples = x.u();
    f.healthyP99Ns = x.d();
    f.healthySamples = x.u();
    fault::Activation act;
    act.spec = x.s("spec");
    act.kind = x.s("kind");
    act.node = static_cast<std::int32_t>(x.u());
    act.core = static_cast<std::int32_t>(x.u());
    act.factor = x.d();
    act.at = sim::nanoseconds(x.d());
    act.until = sim::nanoseconds(x.d());
    act.timed = true;
    f.activations.push_back(act);

    core::ConnStats &c = st.conn;
    c.scheduler = x.s("sched");
    c.clients = static_cast<std::uint32_t>(x.u());
    c.groups = static_cast<std::uint32_t>(x.u());
    c.qpCapacity = static_cast<std::uint32_t>(x.u());
    c.groupSwitches = x.u();
    c.warmupHits = x.u();
    c.warmupMisses = x.u();
    c.regroups = x.u();
    c.admittedImmediate = x.u();
    c.deferredTotal = x.u();
    c.meanDeferredWaitNs = x.d();
    c.activeP99Ns = x.d();
    c.inactiveP99Ns = x.d();
    c.qpHits = x.u();
    c.qpMisses = x.u();
    c.qpFootprintAllBytes = x.u();
    c.qpFootprintGroupBytes = x.u();
    c.perGroupAdmitted = {x.u(), x.u()};
    c.perGroupDeferred = {x.u(), x.u()};
    c.perGroupP99Ns = {x.d(), x.d()};
    return st;
}

TEST(ScenarioOutputSchema, EveryRunStatsFieldReachesJsonAndProm)
{
    Sentinels x;
    std::vector<std::string> sums;
    scenario::ScenarioResult result;
    result.scenario.name = "schema";
    result.scenario.outputDir = ::testing::TempDir() + "/schema_out";
    scenario::PointResult res;
    res.stats = sentinelStats(x, sums);
    result.points.push_back(res);
    const std::vector<std::string> written =
        scenario::writeScenarioOutputs(result);
    ASSERT_EQ(written.size(), 3u);
    const std::string json =
        slurp(result.scenario.outputDir + "/point_000.json");
    const std::string prom =
        slurp(result.scenario.outputDir + "/metrics.prom");

    for (const std::string &s : x.both) {
        EXPECT_NE(json.find(s), std::string::npos) << s << " not in JSON";
        EXPECT_NE(prom.find(s), std::string::npos) << s << " not in prom";
    }
    for (const std::string &sum : sums)
        EXPECT_NE(prom.find("} " + sum + "\n"), std::string::npos) << sum;
    // The bools, set true, render as JSON true and a sample of 1.
    for (const char *key : {"\"critical\": true", "\"failed\": true",
                            "\"timed\": true"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    for (const char *family :
         {"rpcvalet_class_critical{", "rpcvalet_node_failed{",
          "rpcvalet_fault_activation_timed{"}) {
        const std::size_t at = prom.find(std::string("\n") + family);
        ASSERT_NE(at, std::string::npos) << family;
        EXPECT_EQ(prom.substr(prom.find('\n', at + 1) - 2, 2), " 1")
            << family;
    }
    for (const std::string &w : written)
        std::remove(w.c_str());
}

TEST(ScenarioOutputSchema, JsonWriterEscapesQuotesBackslashesAndControls)
{
    core::ClassStats cs;
    cs.name = std::string("a\"b\\c\x01" "d\n");
    stats::JsonWriter w;
    core::JsonFields fields(w);
    w.beginObject();
    core::forEachField(fields, cs);
    w.end();
    EXPECT_NE(w.str().find("\"class\": \"a\\\"b\\\\c\\u0001d\\n\""),
              std::string::npos)
        << w.str();
    EXPECT_EQ(stats::jsonEscape("\t\r"), "\\t\\r");
    EXPECT_EQ(stats::jsonNumber(0.1), "0.1");
    EXPECT_EQ(stats::jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

} // namespace
