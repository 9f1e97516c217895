/**
 * @file
 * The one description of RunStats' fields, the single source of every
 * output that reports a run: the scenario point JSON and metrics.prom,
 * and the bench --json "series" and "class_stats". Each field carries
 * its JSON key, its Prometheus family, its HELP text and its kind;
 * adding a RunStats field is one entry here.
 *
 * forEachField(v, x) walks x's fields in order and hands each to a
 * renderer v, which provides:
 *
 *   field(value, json, prom, help, kind = Scalar, quantile = 0)
 *       one bool, integer, double or std::string;
 *   object(key, prom, body)
 *       the fields body() visits, nested under key in JSON; flat in
 *       Prometheus, and left out of it when prom is false;
 *   list(key, label, n, element)
 *       an array of n records, element(i) visiting record i; in
 *       Prometheus each record's samples carry label = the record's
 *       Key field (its index when it has none);
 *   values(xs, json, prom, help, label)
 *       a std::vector of numbers: one Scalar sample per entry, label =
 *       its index.
 *
 * JsonFields below renders JSON; scenario/runner.cc renders
 * Prometheus, where a field becomes (by FieldKind):
 *
 *   Scalar          one sample (a bool as 0/1): a counter when the
 *                   family name ends in _total, else a gauge;
 *   Quantile, Mean  parts of the summary family `prom`, emitted when
 *                   its Count part arrives (sum = mean x count), so
 *                   Count is described last and carries the HELP text;
 *   Key             no sample: the label value of the enclosing record;
 *   Info            a string: gauge `prom` = 1 with label value="...".
 *
 * A label whose value is empty is left out of the sample.
 */

#ifndef RPCVALET_CORE_RUN_STATS_FIELDS_HH
#define RPCVALET_CORE_RUN_STATS_FIELDS_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "stats/json.hh"

namespace rpcvalet::core {

/** How a described field renders in Prometheus (see above). */
enum class FieldKind
{
    Scalar,
    Quantile,
    Mean,
    Count,
    Key,
    Info,
};

template <typename V>
void
forEachField(V &v, const stats::LoadPoint &p)
{
    const char *lat = "rpcvalet_latency_ns";
    v.field(p.offeredRps, "offered_rps", "rpcvalet_offered_rps",
            "Offered aggregate arrival rate, requests per second.");
    v.field(p.achievedRps, "achieved_rps", "rpcvalet_achieved_rps",
            "Achieved completion throughput, requests per second.");
    v.field(p.meanNs, "mean_ns", lat, nullptr, FieldKind::Mean);
    v.field(p.p50Ns, "p50_ns", lat, nullptr, FieldKind::Quantile, 0.5);
    v.field(p.p90Ns, "p90_ns", lat, nullptr, FieldKind::Quantile, 0.9);
    v.field(p.p99Ns, "p99_ns", lat, nullptr, FieldKind::Quantile, 0.99);
    v.field(p.samples, "samples", lat,
            "End-to-end latency of latency-critical RPCs, nanoseconds.",
            FieldKind::Count);
}

template <typename V>
void
forEachField(V &v, const LatencyBreakdown &b)
{
    const std::pair<const char *, const ComponentStats *> parts[] = {
        {"reassembly", &b.reassembly},
        {"dispatch", &b.dispatch},
        {"queue_wait", &b.queueWait},
        {"service", &b.service},
    };
    v.list("breakdown", "component", 4, [&](std::size_t i) {
        const ComponentStats &c = *parts[i].second;
        v.field(std::string(parts[i].first), "component", nullptr, nullptr,
                FieldKind::Key);
        v.field(c.meanNs, "mean_ns", "rpcvalet_breakdown_mean_ns",
                "Mean latency of one RPC pipeline component, ns.");
        v.field(c.p99Ns, "p99_ns", "rpcvalet_breakdown_p99_ns",
                "p99 latency of one RPC pipeline component, ns.");
    });
}

template <typename V>
void
forEachField(V &v, const ClassStats &c)
{
    const char *lat = "rpcvalet_class_latency_ns";
    v.field(c.name, "class", nullptr, nullptr, FieldKind::Key);
    v.field(c.latencyCritical, "critical", "rpcvalet_class_critical",
            "1 when the class counts toward the headline tail metric.");
    v.field(c.sloNs, "slo_ns", "rpcvalet_class_slo_ns",
            "Declared p99 SLO bound of the class, ns (0 = none).");
    v.field(c.achievedRps, "achieved_rps", "rpcvalet_class_achieved_rps",
            "Completion throughput of the class, requests per second.");
    v.field(c.meanNs, "mean_ns", lat, nullptr, FieldKind::Mean);
    v.field(c.p50Ns, "p50_ns", lat, nullptr, FieldKind::Quantile, 0.5);
    v.field(c.p99Ns, "p99_ns", lat, nullptr, FieldKind::Quantile, 0.99);
    v.field(c.p999Ns, "p999_ns", lat, nullptr, FieldKind::Quantile, 0.999);
    v.field(c.completions, "completions", lat,
            "Per-request-class latency, nanoseconds.", FieldKind::Count);
    v.field(c.sloAttainment, "slo_attainment", "rpcvalet_class_slo_attainment",
            "Fraction of the class's samples within its SLO bound.");
}

template <typename V>
void
forEachField(V &v, const NodeStats &n)
{
    const char *lat = "rpcvalet_node_latency_ns";
    v.field(n.nodeId, "node", nullptr, nullptr, FieldKind::Key);
    v.field(n.failed, "failed", "rpcvalet_node_failed",
            "1 when the node ended the run failed.");
    v.field(n.served, "served", "rpcvalet_node_served_total",
            "Completions on the node, warmup included.");
    v.field(n.criticalCompletions, "critical_completions",
            "rpcvalet_node_critical_completions_total",
            "Latency-critical completions on the node.");
    v.field(n.achievedRps, "achieved_rps", "rpcvalet_node_achieved_rps",
            "Post-warmup completion rate of the node, requests per second.");
    v.field(n.meanNs, "mean_ns", lat, nullptr, FieldKind::Mean);
    v.field(n.p50Ns, "p50_ns", lat, nullptr, FieldKind::Quantile, 0.5);
    v.field(n.p99Ns, "p99_ns", lat, nullptr, FieldKind::Quantile, 0.99);
    v.field(n.samples, "samples", lat,
            "Latency of the node's post-warmup RPCs, nanoseconds.",
            FieldKind::Count);
    v.values(n.perCoreServed, "per_core_served",
             "rpcvalet_node_core_served_total",
             "Completions served by each core of the node.", "core");
}

template <typename V>
void
forEachField(V &v, const fault::Activation &a)
{
    v.field(a.spec, "spec", "rpcvalet_fault_activation_spec_info",
            "Canonical spec of the fault behind an activation.",
            FieldKind::Info);
    v.field(a.kind, "kind", "rpcvalet_fault_activation_kind_info",
            "Registry name of the fault behind an activation.",
            FieldKind::Info);
    v.field(a.node, "node", "rpcvalet_fault_activation_node",
            "Victim server of an activation (-1 = fabric-wide).");
    v.field(a.core, "core", "rpcvalet_fault_activation_core",
            "Victim core of an activation (-1 = the whole node).");
    v.field(a.factor, "factor", "rpcvalet_fault_activation_factor",
            "Slowdown factor of an activation (1 = none).");
    v.field(sim::toNs(a.at), "at_ns", "rpcvalet_fault_activation_at_ns",
            "Activation time, ns.");
    v.field(sim::toNs(a.until), "until_ns",
            "rpcvalet_fault_activation_until_ns",
            "End of the fault window, ns (0 = never ends).");
    v.field(a.timed, "timed", "rpcvalet_fault_activation_timed",
            "1 when the activation is armed as a timed event.");
}

template <typename V>
void
forEachField(V &v, const FaultStats &f)
{
    v.field(f.retries, "retries", "rpcvalet_retries_total",
            "Timed-out requests re-sent under the retry policy.");
    v.field(f.retryDrops, "retry_drops", "rpcvalet_retry_drops_total",
            "Requests dropped after exhausting the attempt budget.");
    v.field(f.hedgesSent, "hedges_sent", "rpcvalet_hedges_sent_total",
            "Hedged duplicate sends issued for slow requests.");
    v.field(f.hedgesWon, "hedges_won", "rpcvalet_hedges_won_total",
            "Hedged requests whose duplicate replied first.");
    v.field(f.duplicateReplies, "duplicate_replies",
            "rpcvalet_duplicate_replies_total",
            "Replies from the losing half of a hedge race.");
    v.field(f.packetsDropped, "packets_dropped",
            "rpcvalet_packets_dropped_total",
            "Packets dropped by injected loss faults.");
    v.field(f.packetsDelayed, "packets_delayed",
            "rpcvalet_packets_delayed_total",
            "Packets delayed by injected delay faults.");
    v.field(f.packetsCorrupted, "packets_corrupted",
            "rpcvalet_packets_corrupted_total",
            "Packets corrupted by injected corruption faults.");
    v.field(f.corruptionsDetected, "corruptions_detected",
            "rpcvalet_corruptions_detected_total",
            "Corrupted replies caught by client-side verification.");
    v.field(f.replySlotEvictions, "reply_slot_evictions",
            "rpcvalet_reply_slot_evictions_total",
            "Dead reply-slot occupants evicted when their lease expired.");
    v.field(f.degradedP99Ns, "degraded_p99_ns", "rpcvalet_degraded_p99_ns",
            "p99 of latency-critical RPCs inside fault windows, ns.");
    v.field(f.degradedSamples, "degraded_samples",
            "rpcvalet_degraded_samples_total",
            "Latency-critical RPCs completed inside fault windows.");
    v.field(f.healthyP99Ns, "healthy_p99_ns", "rpcvalet_healthy_p99_ns",
            "p99 of latency-critical RPCs outside fault windows, ns.");
    v.field(f.healthySamples, "healthy_samples",
            "rpcvalet_healthy_samples_total",
            "Latency-critical RPCs completed outside fault windows.");
    v.list("activations", "activation", f.activations.size(),
           [&](std::size_t i) { forEachField(v, f.activations[i]); });
}

template <typename V>
void
forEachField(V &v, const ConnStats &c)
{
    v.field(c.scheduler, "scheduler", "rpcvalet_conn_scheduler_info",
            "Canonical connection-scheduler spec of the run.",
            FieldKind::Info);
    v.field(c.clients, "clients", "rpcvalet_conn_clients",
            "Logical clients in the connection population.");
    v.field(c.groups, "groups", "rpcvalet_conn_groups",
            "Connection groups the population partitioned into.");
    v.field(c.qpCapacity, "qp_capacity", "rpcvalet_conn_qp_capacity",
            "Server-NI QP-cache capacity the run resolved to.");
    v.field(c.groupSwitches, "group_switches",
            "rpcvalet_conn_group_switches_total",
            "Completed connection-group context switches.");
    v.field(c.warmupHits, "warmup_hits", "rpcvalet_conn_warmup_hits_total",
            "Warmup pre-admissions that released a queued request.");
    v.field(c.warmupMisses, "warmup_misses",
            "rpcvalet_conn_warmup_misses_total",
            "Warmup pre-admissions that found nothing queued.");
    v.field(c.regroups, "regroups", "rpcvalet_conn_regroups_total",
            "End-of-epoch priority regroupings.");
    v.field(c.admittedImmediate, "admitted_immediate",
            "rpcvalet_conn_admitted_immediate_total",
            "Requests admitted without deferral.");
    v.field(c.deferredTotal, "deferred_total", "rpcvalet_conn_deferred_total",
            "Requests deferred until their group went active.");
    v.field(c.meanDeferredWaitNs, "mean_deferred_wait_ns",
            "rpcvalet_conn_mean_deferred_wait_ns",
            "Mean admission wait of deferred requests, ns.");
    v.field(c.activeP99Ns, "active_p99_ns", "rpcvalet_conn_active_p99_ns",
            "Client-observed p99 of immediately admitted requests, ns.");
    v.field(c.inactiveP99Ns, "inactive_p99_ns",
            "rpcvalet_conn_inactive_p99_ns",
            "Client-observed p99 of deferred requests (admission wait "
            "included), ns.");
    v.field(c.qpHits, "qp_hits", "rpcvalet_conn_qp_hits_total",
            "Server QP-cache hits.");
    v.field(c.qpMisses, "qp_misses", "rpcvalet_conn_qp_misses_total",
            "Server QP-cache misses (cold-fetch penalty paid).");
    v.field(c.qpFootprintAllBytes, "qp_footprint_all_bytes",
            "rpcvalet_conn_qp_footprint_all_bytes",
            "Modeled connection-state footprint, every client live, bytes.");
    v.field(c.qpFootprintGroupBytes, "qp_footprint_group_bytes",
            "rpcvalet_conn_qp_footprint_group_bytes",
            "Modeled connection-state footprint, one group live, bytes.");
    const auto &deferred = c.perGroupDeferred;
    const auto &p99 = c.perGroupP99Ns;
    v.list("per_group", "group", c.perGroupAdmitted.size(),
           [&](std::size_t g) {
               v.field(g, "group", nullptr, nullptr, FieldKind::Key);
               v.field(c.perGroupAdmitted[g], "admitted",
                       "rpcvalet_conn_group_admitted_total",
                       "Requests admitted per group position.");
               v.field(g < deferred.size() ? deferred[g] : 0, "deferred",
                       "rpcvalet_conn_group_deferred_total",
                       "Requests deferred per group position.");
               v.field(g < p99.size() ? p99[g] : 0.0, "p99_ns",
                       "rpcvalet_conn_group_p99_ns",
                       "Client-observed p99 per group position, ns.");
           });
}

template <typename V>
void
forEachField(V &v, const RunStats &s)
{
    v.field(s.workload, "app_name", "rpcvalet_app_info",
            "Name of the workload application served.", FieldKind::Info);
    v.field(s.router, "router_name", "rpcvalet_router_info",
            "Canonical name of the run's cluster router.", FieldKind::Info);
    forEachField(v, s.point);
    v.field(s.meanServiceNs, "mean_service_ns", "rpcvalet_mean_service_ns",
            "Measured mean core occupancy per RPC (S-bar), ns.");
    v.field(s.completions, "completions", "rpcvalet_completions_total",
            "Completed RPCs, warmup included.");
    v.field(s.criticalCompletions, "critical_completions",
            "rpcvalet_critical_completions_total",
            "Latency-critical completions.");
    v.field(s.replySlotStalls, "reply_slot_stalls",
            "rpcvalet_reply_slot_stalls_total",
            "Reply-slot stalls at the cores.");
    v.field(s.flowControlDeferrals, "flow_control_deferrals",
            "rpcvalet_flow_control_deferrals_total",
            "Arrivals deferred by per-source slot flow control.");
    v.field(s.verifyFailures, "verify_failures",
            "rpcvalet_verify_failures_total",
            "Replies that failed application-level verification.");
    v.field(s.executedEvents, "executed_events",
            "rpcvalet_executed_events_total",
            "Simulator events executed by the run.");
    v.field(s.simulatedUs, "simulated_us", "rpcvalet_simulated_us",
            "Total simulated time, microseconds.");
    v.values(s.perCoreServed, "per_core_served", "rpcvalet_core_served_total",
             "Completions served by each core.", "core");
    v.field(s.recvSlotPeak, "recv_slot_peak", "rpcvalet_recv_slot_peak",
            "Peak busy receive slots.");
    v.field(s.rendezvousRequests, "rendezvous_requests",
            "rpcvalet_rendezvous_requests_total",
            "Requests that used the rendezvous large-message path.");
    v.field(s.preemptionYields, "preemption_yields",
            "rpcvalet_preemption_yields_total", "Preemption yields taken.");
    v.field(s.nestedRpcsSent, "nested_rpcs_sent", "rpcvalet_nested_rpcs_total",
            "Nested RPCs issued by chained handlers.");
    v.field(s.chainsCompleted, "chains_completed",
            "rpcvalet_chains_completed_total",
            "Nested-RPC chain groups fully completed.");
    v.field(s.requestTimeouts, "request_timeouts",
            "rpcvalet_request_timeouts_total",
            "Requests that exceeded the cluster request timeout.");
    v.field(s.failoverReroutes, "failover_reroutes",
            "rpcvalet_failover_reroutes_total",
            "Requests re-dispatched after a timeout or mark-down.");
    v.field(s.staleReplies, "stale_replies", "rpcvalet_stale_replies_total",
            "Replies that arrived after their request had timed out.");
    v.field(s.nodesDown, "nodes_down", "rpcvalet_nodes_down",
            "Server nodes the health tracker held down at run end.");
    forEachField(v, s.breakdown);
    v.object("fault", true, [&] { forEachField(v, s.fault); });
    // Connection families exist only for runs with a client population.
    v.object("conn", s.conn.clients > 0, [&] { forEachField(v, s.conn); });
    v.list("per_class", "class", s.perClass.size(),
           [&](std::size_t i) { forEachField(v, s.perClass[i]); });
    v.list("per_node", "node", s.perNode.size(),
           [&](std::size_t i) { forEachField(v, s.perNode[i]); });
}

/** Renders forEachField into a stats::JsonWriter. */
class JsonFields
{
  public:
    explicit JsonFields(stats::JsonWriter &w) : w_(w) {}

    template <typename T>
    void
    field(const T &value, const char *json, const char *, const char *,
          FieldKind = FieldKind::Scalar, double = 0.0)
    {
        w_.value(json, value);
    }

    template <typename Fn>
    void
    object(const char *key, bool, Fn &&body)
    {
        w_.beginObject(key);
        body();
        w_.end();
    }

    template <typename Fn>
    void
    list(const char *key, const char *, std::size_t n, Fn &&element)
    {
        w_.beginArray(key);
        for (std::size_t i = 0; i < n; ++i) {
            w_.beginObject();
            element(i);
            w_.end();
        }
        w_.end();
    }

    template <typename T>
    void
    values(const std::vector<T> &xs, const char *json, const char *,
           const char *, const char *)
    {
        w_.beginArray(json, true);
        for (const T &x : xs)
            w_.value(nullptr, x);
        w_.end();
    }

  private:
    stats::JsonWriter &w_;
};

} // namespace rpcvalet::core

#endif // RPCVALET_CORE_RUN_STATS_FIELDS_HH
