#include "sim/spec.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace rpcvalet::sim {

Spec
Spec::parse(const std::string &text, const std::string &what)
{
    Spec spec;
    spec.what = what;
    const std::size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        fatal(what + " spec '" + text + "' has an empty name");
    if (colon == std::string::npos)
        return spec;

    const std::string param_text = text.substr(colon + 1);
    // getline never yields the empty segment after a trailing ':' or
    // ','; reject those here so "greedy:" and "pow2:d=3," die loudly
    // like every other malformed spec.
    if (param_text.empty() || param_text.back() == ',') {
        fatal(what + " spec '" + text +
              "': parameter '' is not of the form key=value");
    }
    std::stringstream rest(param_text);
    std::string pair;
    while (std::getline(rest, pair, ',')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
            fatal(what + " spec '" + text + "': parameter '" + pair +
                  "' is not of the form key=value");
        }
        const std::string key = pair.substr(0, eq);
        if (spec.params.count(key) > 0) {
            fatal(what + " spec '" + text + "': duplicate key '" + key +
                  "'");
        }
        spec.params.emplace(key, pair.substr(eq + 1));
    }
    return spec;
}

std::string
Spec::toString() const
{
    std::string out = name;
    char sep = ':';
    for (const auto &[key, value] : params) {
        out += sep;
        out += key;
        out += '=';
        out += value;
        sep = ',';
    }
    return out;
}

bool
Spec::has(const std::string &key) const
{
    return params.count(key) > 0;
}

namespace {

/** The leading number of @p text, with @p rest set past it; fatal()
 *  when there is none. */
double
leadingNumber(const std::string &text, const char *&rest,
              const char *noun)
{
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || errno != 0)
        fatal("'" + text + "' is not a " + noun);
    rest = end;
    return parsed;
}

/** Parameter @p key of @p spec through @p parse, @p fallback when
 *  absent; errors name the spec and the key. */
template <typename T>
T
param(const Spec &spec, const std::string &key, T fallback,
      T (*parse)(const std::string &))
{
    const auto it = spec.params.find(key);
    if (it == spec.params.end())
        return fallback;
    const ErrorContext where(spec.what + " '" + spec.toString() +
                             "': parameter '" + key + "'");
    return parse(it->second);
}

} // namespace

double
parseDouble(const std::string &text)
{
    const char *rest = nullptr;
    const double parsed = leadingNumber(text, rest, "number");
    if (*rest != '\0')
        fatal("'" + text + "' has trailing characters");
    return parsed;
}

std::uint64_t
parseUint(const std::string &text)
{
    const double parsed = parseDouble(text);
    // Range-check before the cast: converting a non-finite or
    // unrepresentable double to uint64_t is undefined behavior.
    if (!std::isfinite(parsed) || parsed < 0.0 || parsed >= 0x1p64 ||
        parsed != std::floor(parsed))
        fatal("'" + text + "' is not a non-negative integer");
    return static_cast<std::uint64_t>(parsed);
}

Tick
parseTick(const std::string &text)
{
    const char *rest = nullptr;
    const double parsed = leadingNumber(text, rest, "duration");
    const std::string unit(rest);
    double ns = parsed;
    if (unit == "us")
        ns = parsed * 1e3;
    else if (unit == "ms")
        ns = parsed * 1e6;
    else if (!unit.empty() && unit != "ns")
        fatal("'" + text + "' has unknown unit '" + unit +
              "' (use ns, us, or ms)");
    // Range-check before nanoseconds() casts to Tick: a non-finite or
    // unrepresentable double is undefined behavior. 2^63 ps is ~107
    // days of simulated time, far beyond any run.
    if (!std::isfinite(ns) || ns < 0.0 ||
        ns * static_cast<double>(ticksPerNs) >= 0x1p63)
        fatal("'" + text + "' is out of range");
    return nanoseconds(ns);
}

std::uint64_t
Spec::uintParam(const std::string &key, std::uint64_t fallback) const
{
    return param(*this, key, fallback, &parseUint);
}

double
Spec::doubleParam(const std::string &key, double fallback) const
{
    return param(*this, key, fallback, &parseDouble);
}

Tick
Spec::tickParam(const std::string &key, Tick fallback) const
{
    return param(*this, key, fallback, &parseTick);
}

void
Spec::expectKeys(std::initializer_list<const char *> allowed) const
{
    for (const auto &[key, value] : params) {
        (void)value;
        bool known = false;
        for (const char *candidate : allowed)
            known = known || key == candidate;
        if (!known) {
            std::string list;
            for (const char *candidate : allowed) {
                if (!list.empty())
                    list += ", ";
                list += candidate;
            }
            fatal(what + " '" + toString() + "': unknown parameter '" +
                  key + "' (accepted: " +
                  (list.empty() ? "none" : list) + ")");
        }
    }
}

bool
Spec::operator==(const Spec &other) const
{
    return name == other.name && params == other.params;
}

bool
Spec::operator!=(const Spec &other) const
{
    return !(*this == other);
}

} // namespace rpcvalet::sim
