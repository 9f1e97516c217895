/**
 * @file
 * The one string-keyed factory registry behind every spec axis.
 *
 * Dispatch policies, arrival processes, workloads, cluster routers,
 * faults and connection schedulers are all selected by a spec string
 * ("pow2:d=3") and built by a factory registered under the spec's
 * name. Each axis is an alias of this template:
 *
 *   using PolicyRegistry  = sim::Registry<DispatchPolicy, PolicySpec>;
 *   using PolicyRegistrar = sim::Registrar<PolicyRegistry>;
 *
 * and defines `instance()` once, as an explicit specialization in its
 * built-ins file (policies.cc, arrivals.cc, ...). Every lookup goes
 * through instance(), so any binary that uses a registry links that
 * file and with it the built-in registrars; no anchor function is
 * needed. The spec type's Axis tag (see sim::AxisSpec) supplies the
 * noun every diagnostic uses ("unknown dispatch policy 'x'").
 *
 * Factories self-register at static-initialization time, including
 * from outside src/ (see examples/custom_*_playground.cc):
 *
 *   namespace {
 *   const ni::PolicyRegistrar reg("my-policy",
 *       [](const ni::PolicySpec &spec) {
 *           spec.expectKeys({"gain"});
 *           return std::make_unique<MyPolicy>(
 *               spec.doubleParam("gain", 1.0));
 *       });
 *   } // namespace
 *
 * Lookups are runtime-only (from main onward): a make() call during
 * another translation unit's static initialization may run before the
 * built-ins have registered.
 *
 * Adding an axis: one Axis tag + AxisSpec alias, one Registry alias
 * with its instance() specialization, and one entry in
 * core::listRegistries.
 */

#ifndef RPCVALET_SIM_REGISTRY_HH
#define RPCVALET_SIM_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace rpcvalet::sim {

/**
 * True when @p Axis declares a `checkArgs(spec, args...)` precondition
 * that make() runs before the factory (arrival: a positive rate).
 */
template <typename Axis, typename = void>
struct HasCheckArgs : std::false_type
{};

template <typename Axis>
struct HasCheckArgs<Axis, std::void_t<decltype(&Axis::checkArgs)>>
    : std::true_type
{};

/**
 * Process-wide name -> factory table for one spec axis. @p SpecT is
 * the axis's sim::AxisSpec; @p Args are extra make() arguments handed
 * to every factory after the spec (arrival: the target rate).
 */
template <typename Product, typename SpecT, typename... Args>
class Registry
{
  public:
    using Spec = SpecT;
    using ProductPtr = std::unique_ptr<Product>;
    /** Builds a product from its (validated) spec. */
    using Factory = std::function<ProductPtr(const SpecT &, Args...)>;

    /**
     * The process-wide registry (created on first use). Declared only:
     * each axis specializes it in its built-ins file.
     */
    static Registry &instance();

    /**
     * Register @p factory under @p name. An empty name, a null factory
     * or a duplicate name is fatal.
     */
    void
    add(const std::string &name, Factory factory)
    {
        if (name.empty())
            fatal("cannot register " + noun() + " with an empty name");
        if (factory == nullptr)
            fatal(noun() + " '" + name + "' has a null factory");
        if (!factories_.emplace(name, std::move(factory)).second) {
            fatal(noun() + " '" + name +
                  "' is already registered (duplicate registration)");
        }
    }

    bool
    contains(const std::string &name) const
    {
        return factories_.count(name) > 0;
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(factories_.size());
        for (const auto &entry : factories_)
            out.push_back(entry.first); // std::map iterates sorted
        return out;
    }

    /** Sorted names joined with ", " (for error messages and help). */
    std::string
    namesJoined() const
    {
        std::string out;
        for (const auto &entry : factories_) {
            if (!out.empty())
                out += ", ";
            out += entry.first;
        }
        return out;
    }

    /**
     * The factory registered under @p name. An unregistered name is
     * fatal, with the message listing every registered name.
     */
    const Factory &
    lookup(const std::string &name) const
    {
        const auto it = factories_.find(name);
        if (it == factories_.end()) {
            fatal("unknown " + noun() + " '" + name + "' (registered: " +
                  namesJoined() + ")");
        }
        return it->second;
    }

    /**
     * Instantiate the product @p spec names (lookup() rules), after the
     * axis's checkArgs precondition if it has one. A factory that
     * returns null is a simulator bug: panic.
     */
    ProductPtr
    make(const SpecT &spec, Args... args) const
    {
        const Factory &factory = lookup(spec.name);
        if constexpr (HasCheckArgs<typename SpecT::Axis>::value)
            SpecT::Axis::checkArgs(spec, args...);
        ProductPtr product = factory(spec, args...);
        if (product == nullptr) {
            panic("factory for " + noun() + " '" + spec.name +
                  "' returned null");
        }
        return product;
    }

  private:
    Registry() = default;

    static std::string noun() { return SpecT::Axis::noun; }

    std::map<std::string, Factory> factories_;
};

/** Registers a factory with @p RegistryT at static-initialization time. */
template <typename RegistryT>
struct Registrar
{
    Registrar(const std::string &name, typename RegistryT::Factory factory)
    {
        RegistryT::instance().add(name, std::move(factory));
    }
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_REGISTRY_HH
