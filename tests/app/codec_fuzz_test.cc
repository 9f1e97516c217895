/**
 * @file
 * Property/fuzz tests for the wire-format codec: random structured
 * inputs round-trip exactly; random unstructured bytes either parse
 * or are rejected, but never misbehave.
 */

#include <gtest/gtest.h>

#include <vector>

#include "app/wire_format.hh"
#include "sim/rng.hh"

namespace {

using namespace rpcvalet;
using namespace rpcvalet::app;

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CodecFuzz, RandomRequestsRoundTrip)
{
    sim::Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        RpcRequest req;
        req.op = static_cast<RpcOp>(rng.uniformInt(0, 4));
        req.key = rng.next();
        req.count = static_cast<std::uint32_t>(rng.uniformInt(0, 1000));
        req.value.resize(rng.uniformInt(0, 300));
        for (auto &b : req.value)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

        const auto bytes = encodeRequest(req);
        const auto back = decodeRequest(bytes);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->op, req.op);
        EXPECT_EQ(back->key, req.key);
        EXPECT_EQ(back->count, req.count);
        EXPECT_EQ(back->value, req.value);
    }
}

TEST_P(CodecFuzz, RandomRepliesRoundTrip)
{
    sim::Rng rng(GetParam() ^ 0xABCD);
    for (int i = 0; i < 2000; ++i) {
        RpcReply reply;
        reply.status = static_cast<RpcStatus>(rng.uniformInt(0, 2));
        reply.value.resize(rng.uniformInt(0, 600));
        for (auto &b : reply.value)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

        const auto back = decodeReply(encodeReply(reply));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->status, reply.status);
        EXPECT_EQ(back->value, reply.value);
    }
}

TEST_P(CodecFuzz, ArbitraryBytesNeverCrashDecoder)
{
    sim::Rng rng(GetParam() ^ 0x5EED);
    for (int i = 0; i < 5000; ++i) {
        std::vector<std::uint8_t> junk(rng.uniformInt(0, 64));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        // Must either parse consistently or reject; asserted by not
        // crashing and by re-encoding parsed values losslessly.
        if (const auto req = decodeRequest(junk); req.has_value()) {
            const auto re = encodeRequest(*req);
            const auto again = decodeRequest(re);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->key, req->key);
        }
        if (const auto rep = decodeReply(junk); rep.has_value()) {
            const auto re = encodeReply(*rep);
            EXPECT_TRUE(decodeReply(re).has_value());
        }
    }
}

TEST_P(CodecFuzz, TruncationAtEveryPointRejectsOrParses)
{
    sim::Rng rng(GetParam() ^ 0x77);
    RpcRequest req;
    req.op = RpcOp::Put;
    req.key = rng.next();
    req.value.assign(50, 0xAB);
    const auto full = encodeRequest(req);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        std::vector<std::uint8_t> prefix(full.begin(),
                                         full.begin() +
                                             static_cast<long>(cut));
        // A strict prefix must never decode to the original request
        // (the vlen field guards the value bytes).
        const auto back = decodeRequest(prefix);
        if (back.has_value()) {
            EXPECT_NE(back->value, req.value);
        }
    }
}

/** peek* must accept exactly what decode* accepts, with equal fields
 *  and value bytes. */
void
expectPeekMatchesDecode(const std::vector<std::uint8_t> &bytes)
{
    const auto req = decodeRequest(bytes);
    const auto reqView = peekRequest(bytes);
    ASSERT_EQ(req.has_value(), reqView.has_value());
    if (req) {
        EXPECT_EQ(reqView->op, req->op);
        EXPECT_EQ(reqView->classId, req->classId);
        EXPECT_EQ(reqView->key, req->key);
        EXPECT_EQ(reqView->count, req->count);
        EXPECT_EQ(std::vector<std::uint8_t>(
                      reqView->value,
                      reqView->value + reqView->valueBytes),
                  req->value);
    }
    const auto rep = decodeReply(bytes);
    const auto repView = peekReply(bytes);
    ASSERT_EQ(rep.has_value(), repView.has_value());
    if (rep) {
        EXPECT_EQ(repView->status, rep->status);
        EXPECT_EQ(std::vector<std::uint8_t>(
                      repView->value,
                      repView->value + repView->valueBytes),
                  rep->value);
    }
}

TEST_P(CodecFuzz, PeekAcceptsAndReadsExactlyWhatDecodeDoes)
{
    sim::Rng rng(GetParam() ^ 0x9EE4);
    for (int i = 0; i < 1000; ++i) {
        // Valid encodings of both kinds, then every truncation of them.
        RpcRequest req;
        req.op = static_cast<RpcOp>(rng.uniformInt(0, 4));
        req.classId = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        req.key = rng.next();
        req.count = static_cast<std::uint32_t>(rng.uniformInt(0, 1000));
        req.value.resize(rng.uniformInt(0, 80));
        for (auto &b : req.value)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        RpcReply reply;
        reply.status = static_cast<RpcStatus>(rng.uniformInt(0, 2));
        reply.value = req.value;
        for (const auto &full : {encodeRequest(req), encodeReply(reply)}) {
            for (std::size_t cut = 0; cut <= full.size(); ++cut) {
                expectPeekMatchesDecode(std::vector<std::uint8_t>(
                    full.begin(), full.begin() + static_cast<long>(cut)));
            }
        }

        // Junk: random bytes, with small length fields planted half
        // the time so that some junk parses (and with bad op/status
        // bytes the rest of the time).
        std::vector<std::uint8_t> junk(rng.uniformInt(0, 64));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        if (rng.uniform() < 0.5) {
            if (junk.size() >= requestHeaderBytes) {
                junk[14] = static_cast<std::uint8_t>(rng.uniformInt(0, 48));
                junk[15] = junk[16] = junk[17] = 0;
            }
            if (junk.size() >= replyHeaderBytes) {
                junk[1] = static_cast<std::uint8_t>(rng.uniformInt(0, 60));
                junk[2] = junk[3] = junk[4] = 0;
            }
        }
        expectPeekMatchesDecode(junk);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1u, 42u, 0xDEADBEEFu));

} // namespace
