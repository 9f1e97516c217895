#include "traced.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "cluster/router.hh"
#include "cluster/topology.hh"
#include "core/parallel.hh"
#include "fault/fault.hh"
#include "fault/packet_faults.hh"
#include "net/fabric.hh"
#include "net/traffic_gen.hh"
#include "node/rpc_node.hh"
#include "sim/domain.hh"
#include "sim/logging.hh"

namespace rpcvalet::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Host time and calls accumulated at one forwarding boundary. */
struct Counter
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/** Adds the lifetime of the scope to a Counter. */
class Stopwatch
{
  public:
    explicit Stopwatch(Counter &c) : c_(c), t0_(Clock::now()) {}
    ~Stopwatch()
    {
        c_.seconds +=
            std::chrono::duration<double>(Clock::now() - t0_).count();
        ++c_.calls;
    }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    Counter &c_;
    Clock::time_point t0_;
};

/**
 * Forwards every call to the workload built by the registry, timing
 * the three hot-path entry points. Each instance is touched by one
 * event domain only, so its counters need no synchronization.
 */
class TimedApp final : public app::RpcApplication
{
  public:
    explicit TimedApp(app::RpcApplicationPtr inner)
        : inner_(std::move(inner))
    {}

    std::vector<std::uint8_t>
    makeRequest(sim::Rng &client_rng) override
    {
        Stopwatch sw(makeRequest_);
        return inner_->makeRequest(client_rng);
    }

    app::HandleResult
    handle(const std::vector<std::uint8_t> &request,
           sim::Rng &server_rng) override
    {
        Stopwatch sw(handle_);
        return inner_->handle(request, server_rng);
    }

    bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &reply) const override
    {
        Stopwatch sw(verify_);
        return inner_->verifyReply(request, reply);
    }

    double meanProcessingNs() const override
    {
        return inner_->meanProcessingNs();
    }
    double latencyCriticalMeanNs() const override
    {
        return inner_->latencyCriticalMeanNs();
    }
    double requestsPerArrival() const override
    {
        return inner_->requestsPerArrival();
    }
    std::vector<app::RequestClass> requestClasses() const override
    {
        return inner_->requestClasses();
    }
    std::string name() const override { return inner_->name(); }

    Counter makeRequest_;
    Counter handle_;
    mutable Counter verify_;

  private:
    app::RpcApplicationPtr inner_;
};

/** Forwards routing decisions, timing each. Client domain only. */
class TimedRouter final : public cluster::Router
{
  public:
    explicit TimedRouter(cluster::RouterPtr inner) : inner_(std::move(inner))
    {}

    std::uint32_t
    route(const cluster::RouteContext &ctx) override
    {
        Stopwatch sw(route_);
        return inner_->route(ctx);
    }
    std::string name() const override { return inner_->name(); }

    Counter route_;

  private:
    cluster::RouterPtr inner_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** max / mean of @p v (1 when empty or all zero). */
double
imbalance(const std::vector<std::uint64_t> &v)
{
    std::uint64_t sum = 0;
    std::uint64_t peak = 0;
    for (const std::uint64_t x : v) {
        sum += x;
        peak = std::max(peak, x);
    }
    if (sum == 0)
        return 1.0;
    return static_cast<double>(peak) * static_cast<double>(v.size()) /
           static_cast<double>(sum);
}

/** Everything a run builds, owned so teardown can be timed piecewise. */
struct Parts
{
    std::vector<std::unique_ptr<sim::EventDomain>> domains;
    std::vector<sim::EventDomain *> domainPtrs;
    std::unique_ptr<net::Fabric> fabric;
    std::unique_ptr<fault::PacketFaults> packetFaults;
    std::vector<std::unique_ptr<TimedApp>> apps;
    std::vector<std::unique_ptr<node::RpcNode>> nodes;
    std::unique_ptr<TimedApp> clientApp;
    std::unique_ptr<cluster::ShardMap> shards;
    std::unique_ptr<cluster::HealthTracker> health;
    std::unique_ptr<TimedRouter> router;
    std::unique_ptr<net::TrafficGenerator> tg;
    std::unique_ptr<fault::FaultScheduler> faultScheduler;
    Counter clientRx;
};

std::unique_ptr<TimedApp>
buildApp(Tracer &tr, const app::WorkloadSpec &spec)
{
    return std::make_unique<TimedApp>(tr.span("WorkloadRegistry::make", [&] {
        return app::WorkloadRegistry::instance().make(spec);
    }));
}

void
connectClients(Tracer &tr, Parts &p, const core::ExperimentConfig &cfg,
               std::uint32_t num_servers)
{
    tr.span("Fabric::connect", [&] {
        net::TrafficGenerator &tg = *p.tg;
        Counter &rx = p.clientRx;
        for (proto::NodeId n = 0; n < cfg.system.domain.numNodes; ++n) {
            if (n >= cfg.system.nodeId &&
                n < cfg.system.nodeId + num_servers)
                continue;
            p.fabric->connect(n, [&tg, &rx](proto::Packet pkt) {
                Stopwatch sw(rx);
                tg.receivePacket(std::move(pkt));
            });
        }
    });
}

/** Destroy in the reverse order of construction, one span each. */
void
teardown(Tracer &tr, Parts &p)
{
    tr.span("teardown", [&] {
        tr.span("~FaultScheduler", [&] { p.faultScheduler.reset(); });
        tr.span("~TrafficGenerator", [&] { p.tg.reset(); });
        tr.span("~Router", [&] { p.router.reset(); });
        p.health.reset();
        p.shards.reset();
        tr.span("~RpcApplication", [&] { p.clientApp.reset(); });
        tr.span("~RpcNode", [&] { p.nodes.clear(); });
        tr.span("~RpcApplication", [&] { p.apps.clear(); });
        tr.span("~PacketFaults", [&] { p.packetFaults.reset(); });
        tr.span("~Fabric", [&] { p.fabric.reset(); });
        tr.span("~EventDomain", [&] { p.domains.clear(); });
    });
}

/** Loop/window bookkeeping shared by both engines' metric harvest. */
struct LoopStats
{
    std::uint64_t executed = 0;
    std::vector<std::uint64_t> perDomainEvents;
    sim::Tick now = 0;
};

/**
 * Stats harvest: the identity fields compared against runExperiment
 * and every per-layer metric the nodes, generator, fabric, faults and
 * health tracker expose.
 */
void
harvest(Tracer &tr, const Parts &p, const LoopStats &loop, TracedRun &out)
{
    tr.span("harvest", [&] {
        stats::LatencyRecorder critical(0);
        node::RpcNode::Breakdown bd;
        std::vector<std::uint64_t> perCore;
        std::vector<std::uint64_t> perNode;
        std::uint64_t retained = 0;
        std::uint64_t stalls = 0;
        std::uint32_t slotPeak = 0;
        double serviceWeighted = 0.0;
        for (const auto &n : p.nodes) {
            for (const sim::Tick t : n->criticalLatency().samples())
                critical.record(t);
            const auto &nb = n->breakdown();
            for (const sim::Tick t : nb.reassembly.samples())
                bd.reassembly.record(t);
            for (const sim::Tick t : nb.dispatch.samples())
                bd.dispatch.record(t);
            for (const sim::Tick t : nb.queueWait.samples())
                bd.queueWait.record(t);
            retained += n->criticalLatency().count() +
                        n->allLatency().count() + nb.reassembly.count() +
                        nb.dispatch.count() + nb.queueWait.count() +
                        nb.service.count() +
                        n->degradedCritical().count() +
                        n->healthyCritical().count();
            for (const auto &c : n->classAccounting())
                retained += c.latency.count();
            out.completions += n->served();
            perNode.push_back(n->served());
            const std::vector<std::uint64_t> cores = n->perCoreServed();
            perCore.insert(perCore.end(), cores.begin(), cores.end());
            stalls += n->replySlotStalls();
            slotPeak = std::max(slotPeak, n->recvSlotPeak());
            serviceWeighted +=
                n->meanServiceTimeNs() * static_cast<double>(n->served());
        }
        out.executedEvents = loop.executed;
        out.p99Ns = critical.percentileNs(99.0);

        const double rpcs = static_cast<double>(out.completions);
        const net::TrafficGenerator &tg = *p.tg;
        std::uint64_t domMax = 0;
        std::uint64_t domSum = 0;
        for (const std::uint64_t e : loop.perDomainEvents) {
            domMax = std::max(domMax, e);
            domSum += e;
        }
        const auto num = [](auto v) { return static_cast<double>(v); };
        const auto perRpc = [&](std::uint64_t v) {
            return ratio(num(v), rpcs);
        };
        const double windows = num(tr.count("WindowPool::run"));
        std::vector<const TimedApp *> apps;
        for (const auto &a : p.apps)
            apps.push_back(a.get());
        if (p.clientApp != nullptr)
            apps.push_back(p.clientApp.get());
        Counter make, handle, verify;
        for (const TimedApp *a : apps) {
            make.seconds += a->makeRequest_.seconds;
            make.calls += a->makeRequest_.calls;
            handle.seconds += a->handle_.seconds;
            handle.calls += a->handle_.calls;
            verify.seconds += a->verify_.seconds;
            verify.calls += a->verify_.calls;
        }
        const Counter route =
            p.router != nullptr ? p.router->route_ : Counter{};
        const std::uint64_t dropped =
            p.packetFaults != nullptr ? p.packetFaults->dropped() : 0;
        const std::uint32_t down =
            p.health != nullptr ? p.health->nodesDown(loop.now) : 0;
        const double loopS = tr.total("event loop");
        const double events = num(loop.executed);

        out.metrics = {
            {"sim.events_per_rpc", perRpc(loop.executed), "events"},
            {"sim.loop_s", loopS, "s"},
            {"sim.loop_mevents_per_s", ratio(events, loopS) / 1e6,
             "Mevents/s"},
            {"core.setup.node_s", tr.total("RpcNode()"), "s"},
            {"core.setup.net_s",
             tr.total("Fabric()") + tr.total("TrafficGenerator()") +
                 tr.total("RouterRegistry::make") +
                 tr.total("Fabric::connect"),
             "s"},
            {"core.setup.pool_s", tr.total("WindowPool()"), "s"},
            {"core.windows", windows, "count"},
            {"core.events_per_window", ratio(events, windows), "events"},
            {"core.window_s", tr.total("WindowPool::run"), "s"},
            {"core.domain_event_skew",
             ratio(num(domMax) * num(loop.perDomainEvents.size()),
                   num(domSum)),
             "ratio"},
            {"net.exchange_s", tr.total("Fabric::exchangeWindow"), "s"},
            {"net.packets_per_rpc", perRpc(p.fabric->delivered()),
             "packets"},
            {"net.client_rx_s", p.clientRx.seconds, "s"},
            {"net.client_rx_calls", num(p.clientRx.calls), "count"},
            {"net.flow_control_deferrals", num(tg.flowControlDeferrals()),
             "count"},
            {"net.timeouts_per_rpc", perRpc(tg.requestTimeouts()), "ratio"},
            {"net.retries_per_rpc", perRpc(tg.retries()), "ratio"},
            {"ni.reassembly_mean_ns", bd.reassembly.meanNs(), "ns"},
            {"ni.dispatch_mean_ns", bd.dispatch.meanNs(), "ns"},
            {"ni.dispatch_p99_ns", bd.dispatch.percentileNs(99.0), "ns"},
            {"ni.recv_slot_peak", num(slotPeak), "slots"},
            {"node.queue_wait_mean_ns", bd.queueWait.meanNs(), "ns"},
            {"node.queue_wait_p99_ns", bd.queueWait.percentileNs(99.0),
             "ns"},
            {"node.core_imbalance", imbalance(perCore), "ratio"},
            {"node.service_mean_ns", ratio(serviceWeighted, rpcs), "ns"},
            {"node.reply_slot_stalls", num(stalls), "count"},
            {"app.build_s", tr.total("WorkloadRegistry::make"), "s"},
            {"app.handle_s", handle.seconds, "s"},
            {"app.handle_calls", num(handle.calls), "count"},
            {"app.make_request_s", make.seconds, "s"},
            {"app.verify_s", verify.seconds, "s"},
            {"stats.retained_samples", num(retained), "count"},
            {"cluster.route_s", route.seconds, "s"},
            {"cluster.route_calls", num(route.calls), "count"},
            {"cluster.node_imbalance", imbalance(perNode), "ratio"},
            {"cluster.nodes_down", num(down), "count"},
            {"cluster.reroutes_per_rpc", perRpc(tg.failoverReroutes()),
             "ratio"},
            {"fault.packets_dropped", num(dropped), "count"},
            {"fault.retry_drops", num(tg.retryDrops()), "count"},
            {"fault.hedge_win_ratio",
             ratio(num(tg.hedgesWon()), num(tg.hedgesSent())), "ratio"},
        };
    });
}

/** Mirror of core/experiment.cc's single-node engine. */
void
runSingleNode(Tracer &tr, const core::ExperimentConfig &cfg, Parts &p,
              TracedRun &out)
{
    cfg.system.validate();
    p.domains.push_back(tr.span("EventDomain()", [] {
        return std::make_unique<sim::EventDomain>();
    }));
    sim::EventDomain &sim = *p.domains.front();
    p.fabric = tr.span("Fabric()", [&] {
        return std::make_unique<net::Fabric>(sim, cfg.system.fabricLatency);
    });
    // One application instance serves both sides, as in runExperiment.
    p.apps.push_back(buildApp(tr, cfg.workload));
    p.nodes.push_back(tr.span("RpcNode()", [&] {
        return std::make_unique<node::RpcNode>(sim, cfg.system, *p.apps[0],
                                               *p.fabric, cfg.warmupRpcs);
    }));
    node::RpcNode &node = *p.nodes.front();

    net::TrafficGenerator::Params tp;
    tp.arrivalRps = cfg.arrivalRps;
    tp.arrival = cfg.arrival;
    tp.targetNode = cfg.system.nodeId;
    tp.clientTurnaround = cfg.clientTurnaround;
    tp.connections = cfg.connections;
    tp.seed = cfg.system.seed;
    p.tg = tr.span("TrafficGenerator()", [&] {
        return std::make_unique<net::TrafficGenerator>(
            sim, tp, cfg.system.domain, *p.apps[0], *p.fabric);
    });
    connectClients(tr, p, cfg, 1);

    const std::uint64_t target = cfg.warmupRpcs + cfg.measuredRpcs;
    net::TrafficGenerator &tg = *p.tg;
    node.setCompletionHook([&](bool, sim::Tick) {
        if (node.served() == target) {
            tg.halt();
            sim.stop();
        }
    });
    tr.span("start", [&] {
        node.start();
        tg.start();
    });
    tr.span("event loop", [&] {
        tr.span("EventDomain::run", [&] { sim.run(); });
    });

    LoopStats loop;
    loop.executed = sim.executedEvents();
    loop.perDomainEvents = {loop.executed};
    loop.now = sim.now();
    harvest(tr, p, loop, out);
}

/** Mirror of core/experiment.cc's cluster engine (both kernels). */
void
runCluster(Tracer &tr, const core::ExperimentConfig &cfg, Parts &p,
           TracedRun &out)
{
    cfg.cluster.validate();
    cfg.retry.validate(cfg.cluster.requestTimeout);
    const std::uint32_t numServers = cfg.cluster.numServerNodes;
    const bool par = cfg.parallelDomains > 0;
    const sim::Tick lookahead = cfg.system.fabricLatency;

    const fault::Resolution faultPlan = tr.span("fault::resolveFaults", [&] {
        return fault::resolveFaults(
            core::effectiveFaults(cfg),
            fault::ResolveContext{numServers, cfg.system.numCores, par});
    });
    if (faultPlan.dropsPackets() && cfg.cluster.requestTimeout == 0)
        sim::fatal("packet-loss faults need a request timeout");

    tr.span("EventDomain()", [&] {
        if (par) {
            p.domains.push_back(
                std::make_unique<sim::EventDomain>(0, "client"));
            for (std::uint32_t i = 0; i < numServers; ++i) {
                p.domains.push_back(std::make_unique<sim::EventDomain>(
                    i + 1, sim::strfmt("node%u", cfg.system.nodeId + i)));
            }
        } else {
            p.domains.push_back(std::make_unique<sim::EventDomain>(0, "main"));
        }
    });
    for (auto &d : p.domains)
        p.domainPtrs.push_back(d.get());
    sim::EventDomain &clientSim = *p.domainPtrs.front();
    const auto serverSim = [&](std::uint32_t i) -> sim::EventDomain & {
        return par ? *p.domainPtrs[i + 1] : clientSim;
    };

    p.fabric = tr.span("Fabric()", [&] {
        return par ? std::make_unique<net::Fabric>(
                         p.domainPtrs, cfg.system.fabricLatency, lookahead)
                   : std::make_unique<net::Fabric>(clientSim,
                                                   cfg.system.fabricLatency);
    });
    if (!faultPlan.packet.empty()) {
        p.packetFaults = tr.span("PacketFaults()", [&] {
            return std::make_unique<fault::PacketFaults>(
                faultPlan.packet, par ? numServers + 1 : 1, cfg.system.seed,
                cfg.system.nodeId, numServers);
        });
        p.fabric->setPerturber(p.packetFaults.get());
    }

    for (std::uint32_t i = 0; i < numServers; ++i) {
        node::SystemParams sys = cfg.system;
        sys.nodeId = cfg.system.nodeId + i;
        if (i > 0)
            sys.seed = cfg.system.seed + 0x51D * i;
        if (faultPlan.dropsPackets())
            sys.replySlotLease = 2 * cfg.cluster.requestTimeout;
        sys.validate();
        p.apps.push_back(buildApp(tr, cfg.workload));
        p.nodes.push_back(tr.span("RpcNode()", [&] {
            return std::make_unique<node::RpcNode>(
                serverSim(i), sys, *p.apps.back(), *p.fabric,
                /*warmup_samples=*/0);
        }));
        p.nodes.back()->setRecording(cfg.warmupRpcs == 0);
        if (par)
            p.fabric->assignNode(sys.nodeId, i + 1);
    }
    const std::vector<std::pair<sim::Tick, sim::Tick>> degraded =
        faultPlan.degradedWindows();
    if (!degraded.empty()) {
        for (auto &n : p.nodes)
            n->setDegradedWindows(degraded);
    }

    p.clientApp = buildApp(tr, cfg.workload);
    p.shards = std::make_unique<cluster::ShardMap>(
        cfg.cluster.shards != 0 ? cfg.cluster.shards : numServers,
        numServers);
    p.health = std::make_unique<cluster::HealthTracker>(
        numServers, cfg.cluster.failThreshold, cfg.cluster.recoveryAfter);
    p.router = std::make_unique<TimedRouter>(
        tr.span("RouterRegistry::make", [&] {
            return cluster::RouterRegistry::instance().make(
                cfg.cluster.router);
        }));

    net::TrafficGenerator::Params tp;
    tp.arrivalRps = cfg.arrivalRps;
    tp.arrival = cfg.arrival;
    tp.targetNode = cfg.system.nodeId;
    tp.numServers = numServers;
    tp.clientTurnaround = cfg.clientTurnaround;
    tp.requestTimeout = cfg.cluster.requestTimeout;
    tp.sweepInterval = cfg.cluster.sweepInterval;
    tp.retry = cfg.retry;
    if (par)
        tp.arrivalBatchWindow = lookahead;
    tp.connections = cfg.connections;
    tp.seed = cfg.system.seed;
    p.tg = tr.span("TrafficGenerator()", [&] {
        return std::make_unique<net::TrafficGenerator>(
            clientSim, tp, cfg.system.domain, *p.clientApp, *p.fabric,
            p.router.get(), p.health.get(), p.shards.get());
    });
    connectClients(tr, p, cfg, numServers);

    p.faultScheduler = tr.span("FaultScheduler()", [&] {
        auto &nodes = p.nodes;
        auto fs = std::make_unique<fault::FaultScheduler>(
            faultPlan,
            fault::FaultScheduler::Hooks{
                [&nodes](std::uint32_t n, bool failed) {
                    nodes[n]->setFailed(failed);
                },
                [&nodes](std::uint32_t n, sim::Tick until) {
                    nodes[n]->stallNi(until);
                },
                [&nodes](std::uint32_t n, std::uint32_t core,
                         double factor) {
                    nodes[n]->setCoreSlowdown(core, factor);
                }});
        fs->arm([&](std::uint32_t i) -> sim::EventDomain & {
            return serverSim(i);
        });
        return fs;
    });

    net::TrafficGenerator &tg = *p.tg;
    tr.span("start", [&] {
        for (auto &n : p.nodes)
            n->start();
        tg.start();
    });

    const std::uint64_t target = cfg.warmupRpcs + cfg.measuredRpcs;
    LoopStats loop;
    if (!par) {
        std::uint64_t completed = 0;
        const auto hook = [&](bool, sim::Tick) {
            ++completed;
            if (completed == cfg.warmupRpcs) {
                for (auto &n : p.nodes)
                    n->setRecording(true);
            }
            if (completed == target) {
                tg.halt();
                clientSim.stop();
            }
        };
        for (auto &n : p.nodes)
            n->setCompletionHook(hook);
        tr.span("event loop", [&] {
            tr.span("EventDomain::run", [&] { clientSim.run(); });
        });
        loop.executed = clientSim.executedEvents();
        loop.perDomainEvents = {loop.executed};
    } else {
        auto pool = tr.span("WindowPool()", [&] {
            return std::make_unique<core::WindowPool>(std::min<unsigned>(
                cfg.parallelDomains,
                static_cast<unsigned>(p.domainPtrs.size())));
        });
        tr.span("event loop", [&] {
            bool recording = cfg.warmupRpcs == 0;
            std::uint64_t last_executed = 0;
            sim::Tick window_start = 0;
            for (;;) {
                const sim::Tick window_end = window_start + lookahead;
                tr.span("WindowPool::run", [&] {
                    pool->run(p.domainPtrs, window_end - 1);
                });
                std::uint64_t total = 0;
                for (auto &n : p.nodes)
                    total += n->served();
                if (!recording && total >= cfg.warmupRpcs) {
                    recording = true;
                    for (auto &n : p.nodes)
                        n->setRecording(true);
                }
                if (recording && total >= target) {
                    tg.halt();
                    break;
                }
                tr.span("Fabric::exchangeWindow", [&] {
                    p.fabric->exchangeWindow(window_end + lookahead);
                });
                std::uint64_t executed_now = 0;
                bool pending = false;
                for (sim::EventDomain *d : p.domainPtrs) {
                    executed_now += d->executedEvents();
                    pending = pending || d->pendingEvents() != 0;
                }
                if (executed_now == last_executed && !pending)
                    sim::fatal("traced parallel run drained before its "
                               "completion target");
                last_executed = executed_now;
                window_start = window_end;
            }
        });
        tr.span("~WindowPool", [&] { pool.reset(); });
        for (sim::EventDomain *d : p.domainPtrs) {
            loop.executed += d->executedEvents();
            loop.perDomainEvents.push_back(d->executedEvents());
        }
    }
    loop.now = clientSim.now();
    harvest(tr, p, loop, out);
}

} // namespace

Tracer::Tracer() : t0_(Clock::now()) {}

int
Tracer::open(const char *name)
{
    const double t =
        std::chrono::duration<double>(Clock::now() - t0_).count();
    spans_.push_back(Span{name, t, t, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int id)
{
    RV_ASSERT(id == current_, "spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end =
        std::chrono::duration<double>(Clock::now() - t0_).count();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (name == s.name)
            sum += s.end - s.start;
    }
    return sum;
}

std::uint64_t
Tracer::count(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Span &s : spans_) {
        if (name == s.name)
            ++n;
    }
    return n;
}

double
Tracer::totalWithPrefix(const std::string &prefix) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (std::string(s.name).compare(0, prefix.size(), prefix) == 0)
            sum += s.end - s.start;
    }
    return sum;
}

TracedRun
runTraced(const core::ExperimentConfig &cfg)
{
    if (cfg.connections.active())
        sim::fatal("traced run: connection populations are not traced");
    TracedRun out;
    Tracer &tr = out.tracer;
    Parts parts;
    tr.span("run", [&] {
        // The same engine choice as core::runExperiment.
        if (cfg.cluster.numServerNodes > 1 || cfg.parallelDomains > 0 ||
            !cfg.faults.empty() || cfg.retry.active())
            runCluster(tr, cfg, parts, out);
        else
            runSingleNode(tr, cfg, parts, out);
        teardown(tr, parts);
    });
    // Known only once their spans have closed.
    out.metrics.push_back({"stats.harvest_s", tr.total("harvest"), "s"});
    out.metrics.push_back({"core.teardown_s", tr.totalWithPrefix("~"), "s"});
    out.wallS = tr.total("run");
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        sim::fatal(sim::strfmt("cannot write spans to '%s'", path.c_str()));
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d}}\n",
                     i == 0 ? "" : ",", s.name, s.start * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        sim::fatal(sim::strfmt("error writing spans to '%s'", path.c_str()));
}

} // namespace rpcvalet::perfbench
