/**
 * @file
 * Generic "name:key=value,key=value" component specifications.
 *
 * A Spec names a registered component plus its parameters, parsed from
 * a compact string form:
 *
 *   "poisson"                          no parameters
 *   "pow2:d=3"                         one integer parameter
 *   "stale-jsq:staleness=50ns"         durations accept ns/us/ms
 *   "mmpp2:burst=0.1,ratio=10"         multiple ','-separated pairs
 *
 * Specs round-trip through toString() (keys print in sorted order) and
 * carry a `what` label ("policy", "arrival", ...) so every diagnostic
 * names the subsystem the bad spec belongs to. Every spec axis
 * (ni::PolicySpec, net::ArrivalSpec, app::WorkloadSpec,
 * cluster::RouterSpec, fault::FaultSpec, conn::ConnSpec) is an
 * AxisSpec of this one parser, so all six registries accept the same
 * spec grammar everywhere — configs, bench flags, and tests.
 */

#ifndef RPCVALET_SIM_SPEC_HH
#define RPCVALET_SIM_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

#include "sim/types.hh"

namespace rpcvalet::sim {

// The one number and duration grammar, shared by spec parameters,
// scenario keys and command-line flags. The whole text must parse;
// errors are fatal() and quote the text, so callers push an
// ErrorContext to say where it came from.

/** Unsigned integer (any number that is integral and in [0, 2^64),
 *  "1e3" included). */
std::uint64_t parseUint(const std::string &text);
/** Floating-point number; inf and nan parse, callers range-check. */
double parseDouble(const std::string &text);
/** Duration: a bare number (nanoseconds) or one with an "ns", "us" or
 *  "ms" suffix, below 2^63 ticks. */
Tick parseTick(const std::string &text);

/** A component selection: registry name plus key=value parameters. */
struct Spec
{
    /**
     * Subsystem label used in error messages ("policy", "arrival");
     * not part of the spec's identity (ignored by comparisons).
     */
    std::string what = "spec";
    /** Registry key (e.g. "greedy", "mmpp2"). */
    std::string name;
    /** Parameters; sorted keys make toString() deterministic. */
    std::map<std::string, std::string> params;

    /**
     * Parse "name" or "name:k=v,k=v" with @p what as the diagnostic
     * label. fatal() on an empty name, an empty key, a missing '=', a
     * duplicate key, or an empty parameter segment (trailing ':' or
     * ',').
     */
    static Spec parse(const std::string &text, const std::string &what);

    /** Canonical string form; parse(toString()) round-trips. */
    std::string toString() const;

    bool has(const std::string &key) const;

    /** Unsigned-integer parameter, @p fallback when absent. */
    std::uint64_t uintParam(const std::string &key,
                            std::uint64_t fallback) const;

    /** Floating-point parameter, @p fallback when absent. */
    double doubleParam(const std::string &key, double fallback) const;

    /** Duration parameter (see parseTick), @p fallback when absent. */
    Tick tickParam(const std::string &key, Tick fallback) const;

    /**
     * fatal() when a parameter key is not in @p allowed — component
     * factories call this so "pow2:dd=3" dies loudly instead of
     * silently defaulting.
     */
    void expectKeys(std::initializer_list<const char *> allowed) const;

    /** Identity is (name, params); the `what` label is ignored. */
    bool operator==(const Spec &other) const;
    bool operator!=(const Spec &other) const;
};

/**
 * A Spec bound to one component axis; each axis is a distinct type.
 * @p AxisT is a tag naming the axis:
 *
 *   struct PolicyAxis
 *   {
 *       static constexpr const char *what = "policy";   // spec label
 *       static constexpr const char *defaultName = "greedy";
 *       static constexpr const char *noun = "dispatch policy";
 *   };
 *   using PolicySpec = sim::AxisSpec<PolicyAxis>;
 *
 * `defaultName` is what a default-constructed spec selects ("" for
 * none); `noun` is what the axis's sim::Registry calls its products
 * in diagnostics.
 */
template <typename AxisT>
struct AxisSpec : public Spec
{
    using Axis = AxisT;

    /** The axis default: Axis::defaultName, no parameters. */
    AxisSpec()
    {
        what = Axis::what;
        name = Axis::defaultName;
    }

    /** Implicit: parse a spec string (fatal on malformed input). */
    AxisSpec(const char *text) : AxisSpec(parse(text)) {}
    AxisSpec(const std::string &text) : AxisSpec(parse(text)) {}

    /** Parse "name" or "name:k=v,k=v" (see Spec::parse). */
    static AxisSpec
    parse(const std::string &text)
    {
        AxisSpec spec;
        static_cast<Spec &>(spec) = Spec::parse(text, Axis::what);
        return spec;
    }
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_SPEC_HH
