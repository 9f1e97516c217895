/**
 * @file
 * Spec-driven workload selection.
 *
 * The application layer was the last subsystem still wired by hand:
 * policies ("jbsq:d=2") and arrivals ("mmpp2:burst=0.1") are resolved
 * through string-keyed registries, while workloads were concrete
 * classes passed by reference. This subsystem completes the picture,
 * mirroring the policy and arrival architecture:
 *
 *  - WorkloadSpec      "name:key=value,..." (sim::AxisSpec with
 *                      workload diagnostics), e.g.
 *                      "masstree:scan_ratio=0.02"
 *  - WorkloadRegistry  the axis's sim::Registry; workloads
 *                      self-register via WorkloadRegistrar, including
 *                      from outside src/ (see
 *                      examples/custom_workload_playground.cc)
 *
 * Built-ins (src/app/workloads.cc):
 *   "herd" (default; §5's HERD-like KV tier), "masstree:scan_ratio="
 *   (ordered store with interfering scans), "masstree-get" /
 *   "masstree-scan" (the pure classes, mix building blocks),
 *   "synthetic:dist=fixed|uniform|exponential|gev[,padding=]" (§5's
 *   echo microbenchmark), "chain:tiers=,fanout=,root_ns=,leaf_ns="
 *   (microservice chain whose handlers fan out nested RPCs per tier),
 *   and the composite "mix:CLASS=WEIGHT,..."
 *   which blends any registered workloads with per-request class tags
 *   (e.g. "mix:masstree-get=0.998,masstree-scan=0.002").
 */

#ifndef RPCVALET_APP_WORKLOAD_HH
#define RPCVALET_APP_WORKLOAD_HH

#include <memory>

#include "app/rpc_application.hh"
#include "sim/registry.hh"
#include "sim/spec.hh"

namespace rpcvalet::app {

/** The workload spec axis (see sim::AxisSpec). */
struct WorkloadAxis
{
    static constexpr const char *what = "workload";
    /** Default workload: the §5 HERD-like KV tier. */
    static constexpr const char *defaultName = "herd";
    static constexpr const char *noun = "workload";
};

/** A workload selection: registry name plus parameters. */
using WorkloadSpec = sim::AxisSpec<WorkloadAxis>;

using RpcApplicationPtr = std::unique_ptr<RpcApplication>;

/**
 * Process-wide name -> factory table for workloads. Factories
 * expectKeys() their spec, so make() is fatal on an invalid parameter
 * as well as on an unregistered name.
 */
using WorkloadRegistry = sim::Registry<RpcApplication, WorkloadSpec>;
using WorkloadRegistrar = sim::Registrar<WorkloadRegistry>;

} // namespace rpcvalet::app

/** Defined in workloads.cc, next to the built-in registrars. */
template <>
rpcvalet::app::WorkloadRegistry &rpcvalet::app::WorkloadRegistry::instance();

#endif // RPCVALET_APP_WORKLOAD_HH
