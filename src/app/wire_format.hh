/**
 * @file
 * RPC wire format shared by clients (traffic generator) and servers.
 *
 * Requests and replies are real byte strings that travel through the
 * simulated protocol (packetized into 64 B blocks, written into
 * receive buffers, parsed by the serving core), so application results
 * are verifiable end to end.
 *
 * Request:  [op:u8][class:u8][key:u64le][count:u32le][vlen:u32le][value...]
 * Reply:    [status:u8][vlen:u32le][value...]
 *
 * The class byte tags which request class of the generating workload
 * this RPC belongs to (see app::RequestClass): the client stamps it in
 * makeRequest, composite workloads ("mix") remap it into their global
 * class table, and the serving node uses the id echoed through
 * HandleResult for per-class tail accounting. Replies carry no class —
 * the server reports it, so replies stay byte-identical across
 * workload compositions.
 */

#ifndef RPCVALET_APP_WIRE_FORMAT_HH
#define RPCVALET_APP_WIRE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace rpcvalet::app {

/** RPC operation codes. */
enum class RpcOp : std::uint8_t
{
    Get = 0,
    Put = 1,
    Del = 2,
    Scan = 3,
    Echo = 4,
};

/** Reply status codes. */
enum class RpcStatus : std::uint8_t
{
    Ok = 0,
    NotFound = 1,
    Error = 2,
};

/** Decoded request. */
struct RpcRequest
{
    RpcOp op = RpcOp::Get;
    /** Request-class id within the generating workload (see
     *  app::RequestClass); single-class workloads leave it 0. */
    std::uint8_t classId = 0;
    std::uint64_t key = 0;
    /** Scan length for Scan requests. */
    std::uint32_t count = 0;
    std::vector<std::uint8_t> value;
};

/** Decoded reply. */
struct RpcReply
{
    RpcStatus status = RpcStatus::Ok;
    std::vector<std::uint8_t> value;
};

/**
 * A validated request read in place: the value bytes stay in the
 * encoded buffer the view was taken from, which must outlive it.
 */
struct RequestView
{
    RpcOp op = RpcOp::Get;
    std::uint8_t classId = 0;
    std::uint64_t key = 0;
    std::uint32_t count = 0;
    const std::uint8_t *value = nullptr;
    std::uint32_t valueBytes = 0;
};

/** A validated reply read in place (see RequestView). */
struct ReplyView
{
    RpcStatus status = RpcStatus::Ok;
    const std::uint8_t *value = nullptr;
    std::uint32_t valueBytes = 0;
};

/** Fixed header sizes. */
constexpr std::size_t requestHeaderBytes = 1 + 1 + 8 + 4 + 4;
constexpr std::size_t replyHeaderBytes = 1 + 4;

/** Byte offset of the request-class id within an encoded request. */
constexpr std::size_t requestClassOffset = 1;

/** Byte offset of the request key within an encoded request. */
constexpr std::size_t requestKeyOffset = 2;

/**
 * Read the request key straight off the wire bytes without a full
 * decode (cluster routers hash it on every request). Returns 0 for
 * requests too short to carry a key.
 */
std::uint64_t requestKeyOf(const std::vector<std::uint8_t> &request);

/** Serialize a request. */
std::vector<std::uint8_t> encodeRequest(const RpcRequest &req);

/**
 * Validate a request and view it without copying; nullopt on
 * malformed input. decodeRequest is this plus a value copy, so both
 * accept exactly the same inputs.
 */
std::optional<RequestView>
peekRequest(const std::vector<std::uint8_t> &bytes);

/** Parse a request; nullopt on malformed input. */
std::optional<RpcRequest>
decodeRequest(const std::vector<std::uint8_t> &bytes);

/** Serialize a reply. */
std::vector<std::uint8_t> encodeReply(const RpcReply &reply);

/** Serialize a reply whose value is the @p n bytes at @p data. */
std::vector<std::uint8_t> encodeReply(RpcStatus status,
                                      const std::uint8_t *data,
                                      std::size_t n);

/** Validate a reply and view it without copying (see peekRequest). */
std::optional<ReplyView>
peekReply(const std::vector<std::uint8_t> &bytes);

/** Parse a reply; nullopt on malformed input. */
std::optional<RpcReply>
decodeReply(const std::vector<std::uint8_t> &bytes);

} // namespace rpcvalet::app

#endif // RPCVALET_APP_WIRE_FORMAT_HH
