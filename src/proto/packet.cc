#include "proto/packet.hh"

#include "sim/logging.hh"

namespace rpcvalet::proto {

std::string
opName(OpType op)
{
    switch (op) {
      case OpType::RemoteRead: return "remote_read";
      case OpType::RemoteWrite: return "remote_write";
      case OpType::Send: return "send";
      case OpType::Replenish: return "replenish";
      case OpType::ReadResponse: return "read_response";
    }
    sim::panic("unknown OpType");
}

std::uint32_t
blocksForBytes(std::uint32_t bytes)
{
    if (bytes == 0)
        return 1;
    return (bytes + cacheBlockBytes - 1) / cacheBlockBytes;
}

std::vector<Packet>
packetize(OpType op, NodeId src, NodeId dst, std::uint32_t slot,
          const std::vector<std::uint8_t> &payload)
{
    std::vector<Packet> packets;
    packets.reserve(blocksForBytes(
        static_cast<std::uint32_t>(payload.size())));
    forEachPacket(op, src, dst, slot, payload,
                  [&packets](Packet &&pkt) {
                      packets.push_back(std::move(pkt));
                  });
    return packets;
}

std::vector<std::uint8_t>
reassemble(const std::vector<Packet> &packets)
{
    RV_ASSERT(!packets.empty(), "cannot reassemble zero packets");
    const std::uint32_t total = packets.front().hdr.totalBlocks;
    const std::uint32_t msg_bytes = packets.front().hdr.msgBytes;
    RV_ASSERT(packets.size() == total, "packet count mismatch");

    std::vector<std::uint8_t> out(msg_bytes, 0);
    std::vector<bool> seen(total, false);
    for (const auto &pkt : packets) {
        RV_ASSERT(pkt.hdr.totalBlocks == total, "inconsistent totalBlocks");
        RV_ASSERT(pkt.hdr.msgBytes == msg_bytes, "inconsistent msgBytes");
        RV_ASSERT(pkt.hdr.blockIndex < total, "block index out of range");
        RV_ASSERT(!seen[pkt.hdr.blockIndex], "duplicate block");
        seen[pkt.hdr.blockIndex] = true;
        const std::size_t lo =
            static_cast<std::size_t>(pkt.hdr.blockIndex) * cacheBlockBytes;
        for (std::size_t i = 0; i < pkt.payload.size(); ++i) {
            if (lo + i < out.size())
                out[lo + i] = pkt.payload[i];
        }
    }
    for (bool s : seen)
        RV_ASSERT(s, "missing block during reassembly");
    return out;
}

} // namespace rpcvalet::proto
