/**
 * @file
 * One place that knows every self-registering component axis.
 *
 * The repo has six spec registries — dispatch policies, arrival
 * processes, workloads, cluster routers, fault injectors, and
 * connection schedulers — each populated by static registrars at
 * load time. `--list-specs` (on rpcvalet_run and every bench) prints
 * this listing so a user can discover the registered names without
 * reading the source; tests assert on the same structure so a new
 * axis cannot be added without showing up here.
 */

#ifndef RPCVALET_CORE_REGISTRY_LISTING_HH
#define RPCVALET_CORE_REGISTRY_LISTING_HH

#include <string>
#include <vector>

namespace rpcvalet::core {

/** One component axis: its spec label and the registered names. */
struct RegistryAxis
{
    /** The spec `what` label ("policy", "arrival", ...). */
    std::string axis;
    /** Registered names, sorted (as the registry reports them). */
    std::vector<std::string> names;
};

/**
 * Every registry in canonical order: policy, arrival, workload,
 * router, fault, conn. Looking each one up links its built-in
 * registrars into the binary, so every axis is listed complete.
 */
std::vector<RegistryAxis> listRegistries();

/**
 * The `--list-specs` text: one "axis: name, name, ..." line per
 * registry, in canonical order, trailing newline included.
 */
std::string formatRegistryListing();

} // namespace rpcvalet::core

#endif // RPCVALET_CORE_REGISTRY_LISTING_HH
