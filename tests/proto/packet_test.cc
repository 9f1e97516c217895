/**
 * @file
 * Unit tests for packetization and reassembly: the soNUMA unrolling of
 * messages into 64 B cache-block packets (§4.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "proto/packet.hh"

namespace {

using namespace rpcvalet::proto;

std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return out;
}

TEST(Packetize, BlocksForBytesBoundaries)
{
    EXPECT_EQ(blocksForBytes(0), 1u);
    EXPECT_EQ(blocksForBytes(1), 1u);
    EXPECT_EQ(blocksForBytes(64), 1u);
    EXPECT_EQ(blocksForBytes(65), 2u);
    EXPECT_EQ(blocksForBytes(128), 2u);
    EXPECT_EQ(blocksForBytes(512), 8u);
    EXPECT_EQ(blocksForBytes(513), 9u);
}

TEST(Packetize, SingleBlockMessage)
{
    const auto payload = patternBytes(40);
    const auto packets = packetize(OpType::Send, 3, 0, 7, payload);
    ASSERT_EQ(packets.size(), 1u);
    EXPECT_EQ(packets[0].hdr.op, OpType::Send);
    EXPECT_EQ(packets[0].hdr.src, 3u);
    EXPECT_EQ(packets[0].hdr.dst, 0u);
    EXPECT_EQ(packets[0].hdr.slot, 7u);
    EXPECT_EQ(packets[0].hdr.blockIndex, 0u);
    EXPECT_EQ(packets[0].hdr.totalBlocks, 1u);
    EXPECT_EQ(packets[0].hdr.msgBytes, 40u);
    EXPECT_EQ(packets[0].payload, payload);
}

TEST(Packetize, MultiBlockCarriesFullHeaderInEveryPacket)
{
    // §4.4: every packet carries the total message size so any NI
    // backend can detect completion statelessly.
    const auto payload = patternBytes(512);
    const auto packets = packetize(OpType::Send, 5, 0, 2, payload);
    ASSERT_EQ(packets.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(packets[i].hdr.blockIndex, i);
        EXPECT_EQ(packets[i].hdr.totalBlocks, 8u);
        EXPECT_EQ(packets[i].hdr.msgBytes, 512u);
        EXPECT_EQ(packets[i].payload.size(), 64u);
    }
}

TEST(Packetize, LastPacketHoldsRemainder)
{
    const auto payload = patternBytes(130); // 64 + 64 + 2
    const auto packets = packetize(OpType::Send, 1, 0, 0, payload);
    ASSERT_EQ(packets.size(), 3u);
    EXPECT_EQ(packets[0].payload.size(), 64u);
    EXPECT_EQ(packets[1].payload.size(), 64u);
    EXPECT_EQ(packets[2].payload.size(), 2u);
}

TEST(Packetize, EmptyPayloadStillOnePacket)
{
    // Replenish messages carry no payload but still need a packet.
    const auto packets = packetize(OpType::Replenish, 0, 9, 4, {});
    ASSERT_EQ(packets.size(), 1u);
    EXPECT_EQ(packets[0].hdr.msgBytes, 0u);
    EXPECT_TRUE(packets[0].payload.empty());
}

TEST(Reassemble, RoundTripsInOrder)
{
    const auto payload = patternBytes(300);
    const auto packets = packetize(OpType::Send, 2, 0, 1, payload);
    EXPECT_EQ(reassemble(packets), payload);
}

TEST(Reassemble, RoundTripsOutOfOrder)
{
    const auto payload = patternBytes(450);
    auto packets = packetize(OpType::Send, 2, 0, 1, payload);
    std::reverse(packets.begin(), packets.end());
    EXPECT_EQ(reassemble(packets), payload);
}

class PacketizeSizes : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PacketizeSizes, RoundTripAnySize)
{
    const auto payload = patternBytes(GetParam());
    const auto packets = packetize(OpType::Send, 7, 0, 3, payload);
    EXPECT_EQ(packets.size(), blocksForBytes(GetParam()));
    EXPECT_EQ(reassemble(packets), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketizeSizes,
                         ::testing::Values(1u, 17u, 63u, 64u, 65u, 127u,
                                           128u, 500u, 512u, 1024u,
                                           2048u));

TEST(ForEachPacket, EmitsExactlyThePacketsPacketizeReturns)
{
    for (const std::size_t n : {0, 1, 63, 64, 65, 450}) {
        const auto payload = patternBytes(n);
        const auto expected =
            packetize(OpType::ReadResponse, 9, 2, 5, payload);
        std::vector<Packet> emitted;
        forEachPacket(OpType::ReadResponse, 9, 2, 5, payload,
                      [&emitted](Packet &&pkt) {
                          emitted.push_back(std::move(pkt));
                      });
        ASSERT_EQ(emitted.size(), expected.size()) << "bytes=" << n;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const PacketHeader &a = emitted[i].hdr;
            const PacketHeader &b = expected[i].hdr;
            EXPECT_EQ(a.op, b.op);
            EXPECT_EQ(a.src, b.src);
            EXPECT_EQ(a.dst, b.dst);
            EXPECT_EQ(a.slot, b.slot);
            EXPECT_EQ(a.blockIndex, b.blockIndex);
            EXPECT_EQ(a.totalBlocks, b.totalBlocks);
            EXPECT_EQ(a.msgBytes, b.msgBytes);
            EXPECT_EQ(a.rendezvous, b.rendezvous);
            EXPECT_EQ(a.rendezvousBytes, b.rendezvousBytes);
            EXPECT_EQ(a.connClient, b.connClient);
            EXPECT_EQ(emitted[i].payload, expected[i].payload)
                << "bytes=" << n << " block=" << i;
        }
        EXPECT_EQ(reassemble(emitted), payload) << "bytes=" << n;
    }
}

TEST(OpName, AllOpsNamed)
{
    EXPECT_EQ(opName(OpType::Send), "send");
    EXPECT_EQ(opName(OpType::Replenish), "replenish");
    EXPECT_EQ(opName(OpType::RemoteRead), "remote_read");
    EXPECT_EQ(opName(OpType::RemoteWrite), "remote_write");
}

} // namespace
