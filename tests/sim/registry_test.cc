/**
 * @file
 * Tests for the sim::Registry template every spec axis aliases, and
 * the sim::AxisSpec it is keyed by, on a toy product: sorted names,
 * the fatal registration and lookup errors, the null-product panic,
 * and forwarding of an extra factory argument behind an axis
 * precondition (the arrival shape: make(spec, rate)). The per-axis
 * suites cover the real registries' built-ins.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/registry.hh"
#include "sim/spec.hh"

namespace {

using namespace rpcvalet;

struct Widget
{
    std::string spec;
    double scale = 1.0;
};

struct WidgetAxis
{
    static constexpr const char *what = "widget";
    static constexpr const char *defaultName = "alpha";
    static constexpr const char *noun = "toy widget";
};

using WidgetSpec = sim::AxisSpec<WidgetAxis>;
using WidgetRegistry = sim::Registry<Widget, WidgetSpec>;

/** The arrival shape: one extra factory argument and a precondition. */
struct ScaledAxis
{
    static constexpr const char *what = "scaled";
    static constexpr const char *defaultName = "";
    static constexpr const char *noun = "scaled widget";

    static void
    checkArgs(const sim::Spec &spec, double scale)
    {
        if (!(scale > 0.0))
            sim::fatal("'" + spec.toString() + "' needs a positive scale");
    }
};

using ScaledSpec = sim::AxisSpec<ScaledAxis>;
using ScaledRegistry = sim::Registry<Widget, ScaledSpec, double>;

} // namespace

template <>
WidgetRegistry &
WidgetRegistry::instance()
{
    static Registry registry;
    return registry;
}

template <>
ScaledRegistry &
ScaledRegistry::instance()
{
    static Registry registry;
    return registry;
}

namespace {

std::unique_ptr<Widget>
makeWidget(const WidgetSpec &spec)
{
    return std::make_unique<Widget>(Widget{spec.toString()});
}

// Registered out of order: names() must still come back sorted.
const sim::Registrar<WidgetRegistry> zetaReg("zeta", makeWidget);
const sim::Registrar<WidgetRegistry> alphaReg("alpha", makeWidget);
const sim::Registrar<WidgetRegistry>
    nullReg("null", [](const WidgetSpec &) -> std::unique_ptr<Widget> {
        return nullptr;
    });

const sim::Registrar<ScaledRegistry>
    scaledReg("scaled", [](const ScaledSpec &spec, double scale) {
        return std::make_unique<Widget>(Widget{spec.toString(), scale});
    });

TEST(SimRegistry, NamesComeBackSorted)
{
    const WidgetRegistry &reg = WidgetRegistry::instance();
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"alpha", "null", "zeta"}));
    EXPECT_EQ(reg.namesJoined(), "alpha, null, zeta");
    EXPECT_TRUE(reg.contains("zeta"));
    EXPECT_FALSE(reg.contains("beta"));
}

TEST(SimRegistry, MakeHandsTheSpecToItsFactory)
{
    const auto widget = WidgetRegistry::instance().make("zeta:k=1");
    ASSERT_NE(widget, nullptr);
    EXPECT_EQ(widget->spec, "zeta:k=1");
}

TEST(SimRegistry, AxisSpecCarriesLabelAndDefault)
{
    const WidgetSpec fallback;
    EXPECT_EQ(fallback.name, "alpha");
    EXPECT_EQ(fallback.what, "widget");
    EXPECT_EQ(WidgetSpec("zeta:k=1").what, "widget");
    EXPECT_TRUE(ScaledSpec().name.empty());
}

TEST(SimRegistryDeath, UnknownNameListsRegisteredNames)
{
    EXPECT_EXIT((void)WidgetRegistry::instance().make("beta"),
                ::testing::ExitedWithCode(1),
                "unknown toy widget 'beta' \\(registered: alpha, null, "
                "zeta\\)");
}

TEST(SimRegistryDeath, DuplicateOrEmptyNameIsFatal)
{
    EXPECT_EXIT(WidgetRegistry::instance().add("alpha", makeWidget),
                ::testing::ExitedWithCode(1),
                "toy widget 'alpha' is already registered");
    EXPECT_EXIT(WidgetRegistry::instance().add("", makeWidget),
                ::testing::ExitedWithCode(1),
                "cannot register toy widget with an empty name");
}

TEST(SimRegistryDeath, NullFactoryIsFatal)
{
    EXPECT_EXIT(WidgetRegistry::instance().add("beta", nullptr),
                ::testing::ExitedWithCode(1),
                "toy widget 'beta' has a null factory");
}

TEST(SimRegistryDeath, NullProductPanics)
{
    // A factory returning null is a simulator bug, not a user error.
    EXPECT_DEATH((void)WidgetRegistry::instance().make("null"),
                 "panic: factory for toy widget 'null' returned null");
}

TEST(SimRegistry, ExtraFactoryArgumentIsForwarded)
{
    const auto widget = ScaledRegistry::instance().make("scaled", 2.5);
    ASSERT_NE(widget, nullptr);
    EXPECT_EQ(widget->spec, "scaled");
    EXPECT_DOUBLE_EQ(widget->scale, 2.5);
}

TEST(SimRegistryDeath, AxisPreconditionRunsBeforeTheFactory)
{
    EXPECT_EXIT((void)ScaledRegistry::instance().make("scaled", 0.0),
                ::testing::ExitedWithCode(1),
                "'scaled' needs a positive scale");
    // The unknown-name check comes first.
    EXPECT_EXIT((void)ScaledRegistry::instance().make("nope", 0.0),
                ::testing::ExitedWithCode(1),
                "unknown scaled widget 'nope'");
}

} // namespace
