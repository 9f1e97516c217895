#include "core/registry_listing.hh"

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "ni/dispatch_policy.hh"

namespace rpcvalet::core {

namespace {

/** @p Registry's axis: the spec label and the registered names. */
template <typename Registry>
RegistryAxis
axisOf()
{
    return {Registry::Spec::Axis::what, Registry::instance().names()};
}

} // namespace

std::vector<RegistryAxis>
listRegistries()
{
    return {
        axisOf<ni::PolicyRegistry>(),
        axisOf<net::ArrivalRegistry>(),
        axisOf<app::WorkloadRegistry>(),
        axisOf<cluster::RouterRegistry>(),
        axisOf<fault::FaultRegistry>(),
        axisOf<conn::ConnRegistry>(),
    };
}

std::string
formatRegistryListing()
{
    std::string out;
    for (const RegistryAxis &axis : listRegistries()) {
        out += axis.axis;
        out += ":";
        for (std::size_t i = 0; i < axis.names.size(); ++i) {
            out += i == 0 ? " " : ", ";
            out += axis.names[i];
        }
        out += "\n";
    }
    return out;
}

} // namespace rpcvalet::core
