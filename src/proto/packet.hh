/**
 * @file
 * soNUMA wire-protocol definitions, extended for native messaging.
 *
 * soNUMA's stateless request-response protocol unrolls large transfers
 * into independent packets, each carrying one cache-block (64 B)
 * payload — the link-layer MTU of a fully integrated NI (§4.2). The
 * RPCValet extension adds two operations, send and replenish, plus a
 * total-message-size field in the network-layer header so the
 * destination NI can detect when all packets of a message have arrived
 * (§4.4).
 */

#ifndef RPCVALET_PROTO_PACKET_HH
#define RPCVALET_PROTO_PACKET_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rpcvalet::proto {

/** Node identifier within the messaging domain. */
using NodeId = std::uint32_t;

/** Core identifier within a node. */
using CoreId = std::uint32_t;

/** Cache block size == link MTU (Table 1: 64-byte blocks). */
constexpr std::uint32_t cacheBlockBytes = 64;

/**
 * Sentinel logical-client id: the packet belongs to no modeled
 * connection (the default; see PacketHeader::connClient).
 */
constexpr std::uint32_t noConnClient = 0xFFFFFFFFu;

/** Protocol operations. Read/Write are the baseline one-sided ops. */
enum class OpType : std::uint8_t
{
    RemoteRead,
    RemoteWrite,
    Send,         ///< RPCValet native message (§4.2)
    Replenish,    ///< end-to-end flow-control credit return (§4.2)
    ReadResponse, ///< one-sided read data (rendezvous pulls, §4.2)
};

/** Name for logs and test diagnostics. */
std::string opName(OpType op);

/**
 * Network-layer packet header.
 *
 * RPCValet's extension over baseline soNUMA is the totalBlocks /
 * msgBytes pair: every packet of a multi-packet send carries the
 * message's full size, so any NI backend can decide completion locally
 * by comparing the receive-slot counter against totalBlocks (§4.4).
 */
struct PacketHeader
{
    OpType op = OpType::Send;
    NodeId src = 0;
    NodeId dst = 0;
    /** Slot index within the (src, dst) slot set (see MessagingDomain). */
    std::uint32_t slot = 0;
    /** Which cache block of the message this packet carries. */
    std::uint32_t blockIndex = 0;
    /** Total number of blocks in the message. */
    std::uint32_t totalBlocks = 1;
    /** Exact message payload size in bytes. */
    std::uint32_t msgBytes = 0;
    /**
     * Rendezvous (§4.2): a send whose payload exceeds maxMsgBytes is
     * announced by a one-block descriptor carrying rendezvous=true and
     * the full payload size; the destination NI then pulls the payload
     * with a one-sided read instead of receiving it inline.
     */
    bool rendezvous = false;
    std::uint32_t rendezvousBytes = 0;
    /**
     * Logical client (connection) this packet belongs to, set by the
     * traffic generator when a connection-management config is active
     * (src/conn/). In real RDMA this identity IS the queue-pair number
     * the transport header already carries, so modeling it adds no
     * wire bytes; the server NI keys its connection-context cache on
     * (src, connClient). noConnClient (the default) means the run has
     * no client-population model and every QP-cache path is skipped.
     */
    std::uint32_t connClient = noConnClient;
};

/** One wire packet: header + up to one cache block of payload. */
struct Packet
{
    PacketHeader hdr;
    std::vector<std::uint8_t> payload;
};

/** Number of cache blocks needed for @p bytes (at least 1). */
std::uint32_t blocksForBytes(std::uint32_t bytes);

/**
 * Unroll a message into its per-block packets, soNUMA-style, handing
 * each to @p fn (as a Packet rvalue) in block order. Every packet
 * carries the full header (stateless protocol); payloads are the
 * consecutive 64 B chunks of @p payload. Builds no container, so the
 * hot send paths pay only for the packets themselves.
 */
template <typename Fn>
void
forEachPacket(OpType op, NodeId src, NodeId dst, std::uint32_t slot,
              const std::vector<std::uint8_t> &payload, Fn &&fn)
{
    const auto msg_bytes = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t total = blocksForBytes(msg_bytes);
    for (std::uint32_t b = 0; b < total; ++b) {
        Packet pkt;
        pkt.hdr.op = op;
        pkt.hdr.src = src;
        pkt.hdr.dst = dst;
        pkt.hdr.slot = slot;
        pkt.hdr.blockIndex = b;
        pkt.hdr.totalBlocks = total;
        pkt.hdr.msgBytes = msg_bytes;
        const std::size_t lo = static_cast<std::size_t>(b) * cacheBlockBytes;
        const std::size_t hi =
            std::min<std::size_t>(lo + cacheBlockBytes, payload.size());
        if (lo < payload.size()) {
            pkt.payload.assign(payload.begin() + static_cast<long>(lo),
                               payload.begin() + static_cast<long>(hi));
        }
        fn(std::move(pkt));
    }
}

/** forEachPacket collected into a vector (tests, reassemble). */
std::vector<Packet> packetize(OpType op, NodeId src, NodeId dst,
                              std::uint32_t slot,
                              const std::vector<std::uint8_t> &payload);

/**
 * Reassemble payload bytes from packets (test helper / functional
 * path). Packets may arrive in any order; missing blocks panic.
 */
std::vector<std::uint8_t>
reassemble(const std::vector<Packet> &packets);

} // namespace rpcvalet::proto

#endif // RPCVALET_PROTO_PACKET_HH
