#include "net/traffic_gen.hh"

#include <algorithm>
#include <utility>

#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::net {

TrafficGenerator::TrafficGenerator(sim::EventDomain &sim,
                                   const Params &params,
                                   const proto::MessagingDomain &domain,
                                   app::RpcApplication &app, Fabric &fabric,
                                   cluster::Router *router,
                                   cluster::HealthTracker *health,
                                   const cluster::ShardMap *shards)
    : sim_(sim), params_(params), domain_(domain), app_(app),
      fabric_(fabric), router_(router), health_(health), shards_(shards),
      arrivals_(sim,
                ArrivalRegistry::instance().make(params.arrival,
                                                 params.arrivalRps),
                params.seed, [this] { onArrival(); }),
      pickRng_(params.seed, /*stream=*/0x7156),
      clientRng_(params.seed, /*stream=*/0xC11E),
      routerRng_(params.seed, /*stream=*/0x7073),
      retryRng_(params.seed, /*stream=*/0x4E77),
      freeSlots_(static_cast<std::size_t>(domain.numNodes) *
                 params.numServers),
      pending_(static_cast<std::size_t>(domain.numNodes) *
               params.numServers),
      perServerInFlight_(params.numServers),
      connRng_(params.seed, /*stream=*/0xC04E),
      sweepEvent_(*this, "timeout-sweep")
{
    RV_ASSERT(params_.numServers >= 1, "need at least one server node");
    RV_ASSERT(params_.targetNode + params_.numServers <= domain_.numNodes,
              "server node range exceeds the messaging domain");
    RV_ASSERT(domain_.numNodes > params_.numServers,
              "need at least one remote client node");
    RV_ASSERT(router_ == nullptr || shards_ != nullptr,
              "a cluster router needs a shard map");
    params_.retry.validate(params_.requestTimeout);
    arrivals_.setBatchWindow(params_.arrivalBatchWindow);
    for (proto::NodeId n = 0; n < domain_.numNodes; ++n) {
        if (n >= params_.targetNode &&
            n < params_.targetNode + params_.numServers)
            continue;
        for (std::uint32_t srv = 0; srv < params_.numServers; ++srv) {
            auto &slots = freeSlots_[pairIndex(n, srv)];
            slots.reserve(domain_.slotsPerNode);
            // Highest slot last so slot 0 is handed out first.
            for (std::uint32_t s = domain_.slotsPerNode; s > 0; --s)
                slots.push_back(s - 1);
        }
    }
    if (params_.connections.active()) {
        params_.connections.validate();
        connSched_ = conn::ConnRegistry::instance().make(
            params_.connections.schedulerSpec());
        connSched_->bind(params_.connections.numClients, sim_,
                         [this](std::uint32_t client,
                                std::uint32_t limit) {
                             return connFlush(client, limit);
                         });
        connQueue_.resize(params_.connections.numClients);
        const std::uint32_t groups = connSched_->numGroups();
        connPerGroupAdmitted_.assign(groups, 0);
        connPerGroupDeferred_.assign(groups, 0);
        connPerGroupLatency_.resize(groups);
    }
}

void
TrafficGenerator::start()
{
    if (connSched_ != nullptr)
        connSched_->start();
    arrivals_.start();
    if (params_.requestTimeout > 0)
        sim_.schedule(sweepEvent_, params_.requestTimeout);
}

void
TrafficGenerator::halt()
{
    halted_ = true;
    if (connSched_ != nullptr)
        connSched_->halt();
    arrivals_.halt();
}

bool
TrafficGenerator::isUp(std::uint32_t server) const
{
    return health_ == nullptr || health_->isUp(server, sim_.now());
}

void
TrafficGenerator::onArrival()
{
    // Requests larger than maxMsgBytes are legal: they take the
    // rendezvous path (§4.2) in launchRequest.
    if (connSched_ != nullptr) {
        // Client-population model: the arrival belongs to a uniformly
        // random logical client, whose scheduler decides whether it
        // may issue now or waits for its group's slice.
        const std::uint32_t client = static_cast<std::uint32_t>(
            connRng_.uniformInt(0, params_.connections.numClients - 1));
        connSubmit(Request{app_.makeRequest(clientRng_), /*chain=*/0,
                           ConnTag{client}});
        return;
    }
    const proto::NodeId src = pickClientNode();
    dispatchRequest(src, Request{app_.makeRequest(clientRng_)});
}

proto::NodeId
TrafficGenerator::connNodeFor(std::uint32_t client) const
{
    // Logical clients multiplex deterministically onto the emulated
    // client nodes (and their per-(node, server) slot pools), skipping
    // the server block — no Rng draw, so admission replays are stable.
    const std::uint32_t numClientNodes =
        domain_.numNodes - params_.numServers;
    proto::NodeId n =
        static_cast<proto::NodeId>(client % numClientNodes);
    if (n >= params_.targetNode)
        n += params_.numServers;
    return n;
}

void
TrafficGenerator::connSubmit(Request req)
{
    const std::uint32_t client = req.conn.client;
    const std::uint32_t group = connSched_->groupOf(client);
    req.conn.genAt = sim_.now();
    req.conn.deferred = !connSched_->mayIssue(client);
    if (!req.conn.deferred) {
        ++connAdmittedImmediate_;
        if (group < connPerGroupAdmitted_.size())
            ++connPerGroupAdmitted_[group];
        dispatchRequest(connNodeFor(client), std::move(req));
        return;
    }
    ++connDeferredTotal_;
    if (group < connPerGroupDeferred_.size())
        ++connPerGroupDeferred_[group];
    connQueue_[client].push_back(std::move(req));
}

std::uint32_t
TrafficGenerator::connFlush(std::uint32_t client, std::uint32_t limit)
{
    auto &queue = connQueue_[client];
    std::uint32_t released = 0;
    while (!queue.empty() && (limit == 0 || released < limit)) {
        Request next = std::move(queue.front());
        queue.pop_front();
        // The tag keeps the generation time: the client-observed
        // latency of a deferred request includes its admission wait.
        connDeferredWait_ += sim_.now() - next.conn.genAt;
        ++connFlushed_;
        ++released;
        dispatchRequest(connNodeFor(client), std::move(next));
    }
    return released;
}

void
TrafficGenerator::connOnCompleted(const ConnTag &tag,
                                  std::uint32_t req_bytes)
{
    if (connSched_ == nullptr || tag.client == proto::noConnClient)
        return;
    const sim::Tick latency = sim_.now() - tag.genAt;
    (tag.deferred ? connInactiveLatency_ : connActiveLatency_)
        .record(latency);
    const std::uint32_t group = connSched_->groupOf(tag.client);
    if (group < connPerGroupLatency_.size())
        connPerGroupLatency_[group].record(latency);
    connSched_->onCompleted(tag.client, req_bytes);
}

void
TrafficGenerator::connOnRetired(const ConnTag &tag)
{
    if (connSched_ == nullptr || tag.client == proto::noConnClient)
        return;
    connSched_->onRetired(tag.client);
}

proto::NodeId
TrafficGenerator::pickClientNode()
{
    // Pick a uniformly random remote source node (§5: "from randomly
    // selected nodes of the cluster"), skipping the server block.
    const std::uint32_t numClients =
        domain_.numNodes - params_.numServers;
    proto::NodeId src = static_cast<proto::NodeId>(
        pickRng_.uniformInt(0, numClients - 1));
    if (src >= params_.targetNode)
        src += params_.numServers;
    return src;
}

void
TrafficGenerator::issueNested(
    std::vector<std::vector<std::uint8_t>> requests,
    std::function<void()> done)
{
    RV_ASSERT(!requests.empty(), "empty nested-RPC group");
    RV_ASSERT(done != nullptr, "nested-RPC group needs a completion");
    const std::uint64_t chain = nextChainId_++;
    chains_.emplace(chain,
                    ChainGroup{
                        static_cast<std::uint32_t>(requests.size()),
                        std::move(done)});
    nestedSent_ += requests.size();
    for (auto &request : requests) {
        // Each nested RPC enters the fabric like a client arrival,
        // from a random emulated node: under uniform fabric latency
        // this is latency-equivalent to issuing from the serving node
        // and reuses the per-(source, server) flow-control slots.
        const proto::NodeId src = pickClientNode();
        dispatchRequest(src, Request{std::move(request), chain});
    }
}

std::uint32_t
TrafficGenerator::routeRequest(proto::NodeId src,
                               const std::vector<std::uint8_t> &request)
{
    // Single-target fast path: no router consulted, no Rng draw —
    // keeps the numServers == 1 experiment bit-identical.
    if (router_ == nullptr || params_.numServers == 1)
        return 0;
    cluster::RouteContext ctx{
        app::requestKeyOf(request),
        request.size() > app::requestClassOffset
            ? request[app::requestClassOffset]
            : std::uint8_t{0},
        src, *this, *shards_, routerRng_};
    const std::uint32_t server = router_->route(ctx);
    RV_ASSERT(server < params_.numServers,
              "router picked an out-of-range server");
    return server;
}

void
TrafficGenerator::dispatchRequest(proto::NodeId src, Request req)
{
    const std::uint32_t server = routeRequest(src, req.bytes);
    const std::size_t pair = pairIndex(src, server);
    if (freeSlots_[pair].empty()) {
        // End-to-end flow control: all S slots toward that server are
        // in flight; the request waits for a replenish (§4.2).
        ++deferrals_;
        pending_[pair].push_back(std::move(req));
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    launchRequest(src, server, slot, std::move(req));
}

void
TrafficGenerator::launchRequest(proto::NodeId src, std::uint32_t server,
                                std::uint32_t slot, Request req,
                                std::uint64_t sibling)
{
    ++requestsSent_;
    ++perServerInFlight_[server];
    // Canary accounting: a recovering server's first routed request is
    // its probe (no-op for healthy servers).
    if (health_ != nullptr)
        health_->noteRouted(server);
    const proto::NodeId dst = params_.targetNode + server;
    const std::uint64_t key = reqKey(server, src, slot);
    // A slot freed while its previous use sat in expectedDuplicates_
    // means that duplicate's reply was lost; it can never arrive, so
    // the stale marker must not misclassify this use's late replies.
    expectedDuplicates_.erase(key);
    if (connSched_ != nullptr && req.conn.client != proto::noConnClient)
        connSched_->onLaunched(req.conn.client);
    // A hedge is born hedged, so it is never hedged again. Store
    // first, then send from the stored bytes: the request is never
    // copied (Fabric::send only schedules, so the entry outlives it).
    const bool is_hedge = sibling != kNoKey;
    const auto [it, fresh] = outstandingRequests_.try_emplace(
        key, Outstanding{std::move(req), server, sim_.now(), sibling,
                         is_hedge, is_hedge});
    RV_ASSERT(fresh, "slot reused while its request is still outstanding");
    const Outstanding &stored = it->second;
    const std::uint32_t conn_client = stored.conn.client;
    if (stored.bytes.size() > domain_.maxMsgBytes) {
        // Rendezvous (§4.2): announce the payload with a one-block
        // descriptor; the destination NI pulls it with a one-sided
        // read from this node's registered memory (the outstanding-
        // request store plays that role here).
        ++rendezvous_;
        proto::Packet descriptor;
        descriptor.hdr.op = proto::OpType::Send;
        descriptor.hdr.src = src;
        descriptor.hdr.dst = dst;
        descriptor.hdr.slot = slot;
        descriptor.hdr.totalBlocks = 1;
        descriptor.hdr.msgBytes = 0;
        descriptor.hdr.rendezvous = true;
        descriptor.hdr.rendezvousBytes =
            static_cast<std::uint32_t>(stored.bytes.size());
        descriptor.hdr.connClient = conn_client;
        fabric_.send(std::move(descriptor));
        return;
    }
    proto::forEachPacket(proto::OpType::Send, src, dst, slot, stored.bytes,
                         [this, conn_client](proto::Packet &&pkt) {
                             pkt.hdr.connClient = conn_client;
                             fabric_.send(std::move(pkt));
                         });
}

void
TrafficGenerator::receivePacket(proto::Packet pkt)
{
    switch (pkt.hdr.op) {
      case proto::OpType::Send: {
        // A reply from a server node. Replies mirror the request slot
        // (HERD-style per-slot response matching), so the reply's
        // (src server, dst client, slot) identifies the original
        // request.
        RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                      pkt.hdr.src <
                          params_.targetNode + params_.numServers,
                  "reply from a non-server node");
        const std::uint32_t server = pkt.hdr.src - params_.targetNode;
        const std::uint64_t key =
            reqKey(server, pkt.hdr.dst, pkt.hdr.slot);
        if (pkt.hdr.totalBlocks == 1 && replies_.count(key) == 0) {
            // Single-block reply with no partial assembly on its key:
            // the packet's payload is the whole message (padded or
            // cut to msgBytes exactly as the assembly path would).
            std::vector<std::uint8_t> reply = std::move(pkt.payload);
            reply.resize(pkt.hdr.msgBytes);
            onReplyComplete(server, pkt.hdr.dst, pkt.hdr.slot,
                            std::move(reply));
            break;
        }
        ReplyAssembly &assembly = replies_[key];
        if (assembly.total == 0) {
            assembly.total = pkt.hdr.totalBlocks;
            assembly.bytes.assign(pkt.hdr.msgBytes, 0);
        }
        const std::size_t lo =
            static_cast<std::size_t>(pkt.hdr.blockIndex) *
            proto::cacheBlockBytes;
        for (std::size_t i = 0; i < pkt.payload.size(); ++i) {
            if (lo + i < assembly.bytes.size())
                assembly.bytes[lo + i] = pkt.payload[i];
        }
        if (++assembly.arrived == assembly.total) {
            std::vector<std::uint8_t> reply = std::move(assembly.bytes);
            replies_.erase(key);
            onReplyComplete(server, pkt.hdr.dst, pkt.hdr.slot,
                            std::move(reply));
        }
        break;
      }
      case proto::OpType::Replenish:
        onReplenish(pkt);
        break;
      case proto::OpType::RemoteRead: {
        // Rendezvous pull: serve the announced payload from this
        // node's memory after a DRAM access.
        RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                      pkt.hdr.src <
                          params_.targetNode + params_.numServers,
                  "one-sided read from a non-server node");
        const std::uint32_t server = pkt.hdr.src - params_.targetNode;
        const std::uint64_t key =
            reqKey(server, pkt.hdr.dst, pkt.hdr.slot);
        auto it = outstandingRequests_.find(key);
        if (it == outstandingRequests_.end()) {
            RV_ASSERT(params_.requestTimeout > 0,
                      "one-sided read for unknown payload");
            // The request timed out and was rerouted; the late pull
            // reads nothing.
            ++staleReplies_;
            break;
        }
        const proto::NodeId owner = pkt.hdr.dst;
        const proto::NodeId reader = pkt.hdr.src;
        const std::uint32_t slot = pkt.hdr.slot;
        const std::vector<std::uint8_t> payload = it->second.bytes;
        const std::uint32_t connClient = it->second.conn.client;
        sim_.schedule(sim::nanoseconds(60.0),
                      [this, owner, reader, slot, payload, connClient] {
                          proto::forEachPacket(
                              proto::OpType::ReadResponse, owner, reader,
                              slot, payload, [&](proto::Packet &&b) {
                                  b.hdr.connClient = connClient;
                                  fabric_.send(std::move(b));
                              });
                      });
        break;
      }
      default:
        sim::panic("traffic generator received unexpected op");
    }
}

void
TrafficGenerator::onReplyComplete(std::uint32_t server,
                                  proto::NodeId dst, std::uint32_t slot,
                                  std::vector<std::uint8_t> reply)
{
    const std::uint64_t key = reqKey(server, dst, slot);
    auto it = outstandingRequests_.find(key);
    if (it == outstandingRequests_.end()) {
        if (expectedDuplicates_.erase(key) > 0) {
            // The losing half of a hedge race: its winner already
            // delivered this request's answer. Expected, accounted
            // apart from genuinely stale (timed-out) replies.
            ++duplicateReplies_;
        } else {
            RV_ASSERT(params_.requestTimeout > 0,
                      "reply for unknown request");
            // The request already timed out and was rerouted
            // elsewhere: drop the late reply's payload, but still
            // return the reply's send-slot credit below — the reply
            // did occupy the server's mirrored send slot, and
            // withholding the replenish would leak it, wedging every
            // later reply on that slot into an infinite busy-retry
            // (seen with chained workloads, whose composed root
            // latency can legitimately cross the request timeout on a
            // healthy node).
            ++staleReplies_;
        }
    } else {
        // The completion's own conn signal comes last, below.
        const Outstanding done = retire(it, /*signal_conn=*/false);
        if (!app_.verifyReply(done.bytes, reply))
            ++verifyFailures_;
        ++repliesReceived_;
        if (health_ != nullptr)
            health_->reportSuccess(server);
        if (done.sibling != kNoKey) {
            // First reply wins: retire the losing half now so its
            // late reply cannot double-complete the request. Its slot
            // credit still returns through the duplicate-reply path
            // above (the loser's reply carries the replenish).
            auto sit = outstandingRequests_.find(done.sibling);
            RV_ASSERT(sit != outstandingRequests_.end(),
                      "hedge sibling vanished before resolution");
            retire(sit, /*signal_conn=*/true);
            replies_.erase(done.sibling);
            expectedDuplicates_.insert(done.sibling);
            if (done.isHedge)
                ++hedgesWon_;
            // A credit parked on the loser (its reply was dropped)
            // comes back now that the loser is retired.
            releaseHeldCredit(done.sibling);
        }
        // Likewise a credit parked on this request itself.
        releaseHeldCredit(key);
        // Connection accounting + the drain-before-switch signal; a
        // drained group's switch can admit deferred requests, which
        // re-enter this generator like the chain completion below —
        // everything above is already settled.
        connOnCompleted(done.conn,
                        static_cast<std::uint32_t>(done.bytes.size()));
        connOnRetired(done.conn);
        // Last among the accounting: the chain-group completion may
        // re-enter this generator (a resumed parent's own reply
        // path), so everything above must already be settled. The
        // replenish below is scheduled either way, so ordering with
        // it is immaterial.
        if (done.chain != 0)
            onChainMemberDone(done.chain);
    }
    // Return the reply's send-slot credit to the serving node after
    // the client-side turnaround (stale replies included, see above).
    const proto::NodeId replyDst = params_.targetNode + server;
    sim_.schedule(params_.clientTurnaround,
                  [this, dst, replyDst, slot] {
                      proto::Packet pkt;
                      pkt.hdr.op = proto::OpType::Replenish;
                      pkt.hdr.src = dst;
                      pkt.hdr.dst = replyDst;
                      pkt.hdr.slot = slot;
                      pkt.hdr.totalBlocks = 1;
                      pkt.hdr.msgBytes = 0;
                      fabric_.send(std::move(pkt));
                  });
}

void
TrafficGenerator::onChainMemberDone(std::uint64_t chain)
{
    auto it = chains_.find(chain);
    RV_ASSERT(it != chains_.end(), "reply for unknown chain group");
    RV_ASSERT(it->second.remaining > 0, "chain-group underflow");
    if (--it->second.remaining > 0)
        return;
    std::function<void()> done = std::move(it->second.done);
    chains_.erase(it);
    ++chainsCompleted_;
    done();
}

void
TrafficGenerator::onReplenish(const proto::Packet &pkt)
{
    // A server finished processing a request: the source's send slot
    // toward that server is free again (§4.2 step C).
    RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                  pkt.hdr.src < params_.targetNode + params_.numServers,
              "replenish from a non-server node");
    const std::uint32_t server = pkt.hdr.src - params_.targetNode;
    const proto::NodeId src = pkt.hdr.dst;
    const std::uint32_t slot = pkt.hdr.slot;
    RV_ASSERT(src < domain_.numNodes, "replenish for unknown node");
    const std::uint64_t key = reqKey(server, src, slot);
    if (outstandingRequests_.find(key) != outstandingRequests_.end()) {
        // The request is still outstanding on this very slot: its
        // reply was lost (per-flow FIFO delivers the reply before the
        // replenish otherwise). Reusing the slot now would alias a new
        // request under the same reply key — park the credit until
        // the outstanding request resolves.
        heldCredits_.insert(key);
        return;
    }
    recycleSlot(src, server, slot);
}

void
TrafficGenerator::recycleSlot(proto::NodeId client, std::uint32_t server,
                              std::uint32_t slot)
{
    const std::size_t pair = pairIndex(client, server);
    if (pending_[pair].empty()) {
        freeSlots_[pair].push_back(slot);
        return;
    }
    Request next = std::move(pending_[pair].front());
    pending_[pair].pop_front();
    launchRequest(client, server, slot, std::move(next));
}

void
TrafficGenerator::releaseHeldCredit(std::uint64_t key)
{
    if (heldCredits_.erase(key) == 0)
        return;
    const auto [server, client, slot] = splitKey(key);
    recycleSlot(client, server, slot);
}

TrafficGenerator::Outstanding
TrafficGenerator::retire(OutstandingMap::iterator it, bool signal_conn)
{
    Outstanding rec = std::move(it->second);
    outstandingRequests_.erase(it);
    if (signal_conn)
        connOnRetired(rec.conn);
    RV_ASSERT(perServerInFlight_[rec.server] > 0,
              "per-server in-flight underflow");
    --perServerInFlight_[rec.server];
    return rec;
}

void
TrafficGenerator::sweepTimeouts()
{
    if (halted_)
        return;

    // One walk collects both candidate sets, which are disjoint by
    // age: hedge [hedgeAfter, timeout), expire [timeout, inf). Act
    // only after the walk, since hedges and retries insert entries it
    // must not visit; a hedge launched below has age 0, so it can
    // never expire in this sweep. Sorting makes the order
    // deterministic: the hash map's iteration order is
    // implementation-defined.
    const fault::RetryPolicy &retry = params_.retry;
    std::vector<std::uint64_t> toHedge;
    std::vector<std::uint64_t> expired;
    for (const auto &[key, rec] : outstandingRequests_) {
        const sim::Tick age = sim_.now() - rec.sentAt;
        if (age >= params_.requestTimeout)
            expired.push_back(key);
        else if (retry.hedgeAfter > 0 && age >= retry.hedgeAfter &&
                 !rec.hedged)
            toHedge.push_back(key);
    }
    std::sort(toHedge.begin(), toHedge.end());
    std::sort(expired.begin(), expired.end());
    for (const std::uint64_t key : toHedge)
        hedgeRequest(key);

    for (const std::uint64_t key : expired) {
        auto it = outstandingRequests_.find(key);
        RV_ASSERT(it != outstandingRequests_.end(),
                  "expired request vanished mid-sweep");
        Outstanding rec = retire(it, /*signal_conn=*/true);
        // A partially assembled reply for the dead request must not
        // pollute the slot's next use.
        replies_.erase(key);
        ++timeouts_;
        // The slot is deliberately NOT reclaimed unless its replenish
        // already came back (a parked credit proves the server's recv
        // slot is free): a slow-but-alive server still returns it via
        // replenish; a dead server's slots stay consumed until it
        // recovers.
        releaseHeldCredit(key);
        if (health_ != nullptr &&
            health_->reportFailure(rec.server, sim_.now())) {
            // Transition to down: everything queued toward this
            // server would wait forever — reroute it now.
            drainPending(rec.server);
        }
        if (rec.sibling != kNoKey) {
            // Half of a hedge pair expired; the surviving half still
            // covers the request, so no re-dispatch — just unlink the
            // survivor (it resolves alone from here).
            auto sit = outstandingRequests_.find(rec.sibling);
            if (sit != outstandingRequests_.end())
                sit->second.sibling = kNoKey;
            continue;
        }
        if (retry.maxAttempts > 0 && rec.attempt >= retry.maxAttempts) {
            // Attempt budget exhausted: give up for real. A chained
            // member still counts toward its group so the parent's
            // deferred reply is not wedged forever.
            ++retryDrops_;
            if (rec.chain != 0)
                onChainMemberDone(rec.chain);
            continue;
        }
        // Reroutes keep their chain group: a chain member survives
        // timeouts without double-counting toward the group.
        ++retries_;
        ++reroutes_;
        sim::Tick backoff = 0;
        if (retry.baseBackoff > 0) {
            double delay = static_cast<double>(retry.baseBackoff);
            for (std::uint32_t a = 1; a < rec.attempt; ++a)
                delay *= retry.multiplier;
            if (retry.jitter > 0.0) {
                delay *= 1.0 + retry.jitter *
                                   (2.0 * retryRng_.uniform() - 1.0);
            }
            backoff = static_cast<sim::Tick>(delay);
        }
        const proto::NodeId client = std::get<1>(splitKey(key));
        Request next = std::move(rec);
        ++next.attempt;
        if (backoff == 0) {
            // Legacy path: immediate re-dispatch, no extra event.
            resubmit(client, std::move(next));
        } else {
            sim_.schedule(backoff, [this, client,
                                    next = std::move(next)]() mutable {
                if (!halted_)
                    resubmit(client, std::move(next));
            });
        }
    }

    sim_.schedule(sweepEvent_,
                  params_.sweepInterval > 0
                      ? params_.sweepInterval
                      : std::max<sim::Tick>(
                            1, params_.requestTimeout / 4));
}

void
TrafficGenerator::resubmit(proto::NodeId src, Request req)
{
    // A retried conn request re-enters the admission gate with a fresh
    // generation time: its client's group may have rotated away since
    // the original send.
    if (req.conn.client != proto::noConnClient)
        connSubmit(std::move(req));
    else
        dispatchRequest(src, std::move(req));
}

void
TrafficGenerator::hedgeRequest(std::uint64_t primary_key)
{
    auto it = outstandingRequests_.find(primary_key);
    RV_ASSERT(it != outstandingRequests_.end(),
              "hedge candidate vanished mid-sweep");
    // References into the map survive the launch's insert and rehash.
    Outstanding &primary = it->second;
    const proto::NodeId client = std::get<1>(splitKey(primary_key));
    // Route the duplicate independently — under load-aware routing it
    // lands on a less-loaded (often different) server than the slow
    // primary.
    const std::uint32_t server = routeRequest(client, primary.bytes);
    const std::size_t pair = pairIndex(client, server);
    if (freeSlots_[pair].empty()) {
        // No free slot toward the hedge's target: skip rather than
        // queue (a queued hedge would only add load where it hurts);
        // the next sweep retries while the primary lives. Most hedge
        // attempts end here, so the bytes are copied only below.
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    // The duplicate is a copy of the primary's Request: it shares the
    // chain group (exactly one of the pair completes it; the loser
    // retires as a duplicate) and the connection identity (admission
    // was already granted; hedging does not re-enter the gate).
    launchRequest(client, server, slot, Request(primary), primary_key);
    ++hedgesSent_;
    primary.hedged = true;
    primary.sibling = reqKey(server, client, slot);
}

void
TrafficGenerator::drainPending(std::uint32_t server)
{
    std::vector<std::pair<proto::NodeId, Request>> queued;
    for (proto::NodeId n = 0; n < domain_.numNodes; ++n) {
        auto &q = pending_[pairIndex(n, server)];
        while (!q.empty()) {
            queued.emplace_back(n, std::move(q.front()));
            q.pop_front();
        }
    }
    for (auto &[client, request] : queued) {
        ++reroutes_;
        dispatchRequest(client, std::move(request));
    }
}

} // namespace rpcvalet::net
