/**
 * @file
 * Parity of the axis table (scenario::axes()): every axis is accepted
 * as its scenario base key, as its [sweep] key and, where it has one,
 * as its bench flag; a bad value dies on each path with an error that
 * names the key.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "scenario/scenario.hh"

namespace {

using namespace rpcvalet;

/** A valid and an invalid value of one axis. */
using Sample = std::pair<std::string, std::string>;

/** The samples, by axis key. */
const std::map<std::string, Sample> &
samples()
{
    static const std::map<std::string, Sample> m{
        {"workload", {"masstree-get", "nonesuch"}},
        {"policy", {"jbsq:d=2", "jbqs:d=2"}},
        {"arrival", {"lognormal:cv=4", "nonesuch"}},
        {"router", {"rr", "nonesuch"}},
        {"scheduler", {"grouped:size=8", "grouped:size=0"}},
        {"nodes", {"3", "99"}},
    };
    return m;
}

/** A scenario with @p line in @p section (plus what every file needs). */
std::string
scenarioText(const std::string &section, const std::string &line)
{
    std::string text = "[connections]\nclients = 64\n";
    text += "[" + section + "]\n" + line + "\n";
    return text + "[sweep]\nload = 0.5\n";
}

TEST(AxisTable, EveryAxisHasSampleValues)
{
    EXPECT_EQ(scenario::axes().size(), samples().size());
    for (const scenario::Axis &axis : scenario::axes())
        EXPECT_EQ(samples().count(axis.key), 1u) << axis.key;
}

TEST(AxisTable, BaseKeyAndSweepKeyAgree)
{
    for (const scenario::Axis &axis : scenario::axes()) {
        const std::string good = samples().at(axis.key).first;
        const std::string line = std::string(axis.key) + " = " + good;
        const scenario::Scenario base = scenario::parseScenarioText(
            scenarioText(axis.section, line), "base.scn");
        const scenario::Scenario swept =
            scenario::parseScenarioText(scenarioText("sweep", line),
                                        "sweep.scn");
        ASSERT_EQ((swept.*axis.sweep).size(), 1u) << axis.key;
        EXPECT_EQ((swept.*axis.sweep)[0], good);

        // Both paths set the same config field to the same value.
        const scenario::ScenarioPoint pb = scenario::expandMatrix(base)[0];
        const scenario::ScenarioPoint ps =
            scenario::expandMatrix(swept)[0];
        EXPECT_EQ(pb.*axis.value, axis.canonical(base.base)) << axis.key;
        EXPECT_EQ(pb.*axis.value, ps.*axis.value) << axis.key;
        EXPECT_EQ(pb.config.arrivalRps, ps.config.arrivalRps) << axis.key;
        EXPECT_NE(pb.*axis.value,
                  axis.canonical(scenario::Scenario{}.base))
            << axis.key << ": the sample equals the default";
    }
}

TEST(AxisTable, BenchFlagsMatchTheTable)
{
    for (const scenario::Axis &axis : scenario::axes()) {
        const std::string good = samples().at(axis.key).first;
        scenario::AxisValues values;
        const bool taken = scenario::parseAxisFlag(
            std::string("--") + axis.key + "=" + good, values);
        EXPECT_EQ(taken, axis.benchFlag) << axis.key;
        EXPECT_EQ(values.*axis.value, taken ? good : "") << axis.key;
    }
    scenario::AxisValues values;
    EXPECT_FALSE(scenario::parseAxisFlag("--points=2", values));
    EXPECT_FALSE(scenario::parseAxisFlag("--policy", values));
}

TEST(AxisTableDeath, BadValuesDieNamingTheKeyOnEveryPath)
{
    for (const scenario::Axis &axis : scenario::axes()) {
        const std::string bad = samples().at(axis.key).second;
        const std::string line = std::string(axis.key) + " = " + bad;
        const std::string named = "\\(" + std::string(axis.key) + " = ";
        EXPECT_EXIT((void)scenario::parseScenarioText(
                        scenarioText(axis.section, line), "bad.scn"),
                    ::testing::ExitedWithCode(1), named)
            << axis.key;
        EXPECT_EXIT((void)scenario::parseScenarioText(
                        scenarioText("sweep", line), "bad.scn"),
                    ::testing::ExitedWithCode(1), named)
            << axis.key;
        if (!axis.benchFlag)
            continue;
        scenario::AxisValues values;
        EXPECT_EXIT((void)scenario::parseAxisFlag(
                        std::string("--") + axis.key + "=" + bad, values),
                    ::testing::ExitedWithCode(1),
                    "--" + std::string(axis.key) + "=")
            << axis.key;
    }
}

TEST(AxisTableDeath, NodeCountsArePlainIntegers)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nnodes = 2.0\nload = 0.5\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "node count '2.0' is not a plain integer");
}

} // namespace
