#include "app/wire_format.hh"

namespace rpcvalet::app {

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    return static_cast<std::uint32_t>(in[at]) |
           (static_cast<std::uint32_t>(in[at + 1]) << 8) |
           (static_cast<std::uint32_t>(in[at + 2]) << 16) |
           (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + static_cast<size_t>(i)])
             << (8 * i);
    return v;
}

} // namespace

std::uint64_t
requestKeyOf(const std::vector<std::uint8_t> &request)
{
    if (request.size() < requestKeyOffset + 8)
        return 0;
    return getU64(request, requestKeyOffset);
}

std::vector<std::uint8_t>
encodeRequest(const RpcRequest &req)
{
    std::vector<std::uint8_t> out;
    out.reserve(requestHeaderBytes + req.value.size());
    out.push_back(static_cast<std::uint8_t>(req.op));
    out.push_back(req.classId);
    putU64(out, req.key);
    putU32(out, req.count);
    putU32(out, static_cast<std::uint32_t>(req.value.size()));
    out.insert(out.end(), req.value.begin(), req.value.end());
    return out;
}

std::optional<RequestView>
peekRequest(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < requestHeaderBytes)
        return std::nullopt;
    if (bytes[0] > static_cast<std::uint8_t>(RpcOp::Echo))
        return std::nullopt;
    RequestView view;
    view.op = static_cast<RpcOp>(bytes[0]);
    view.classId = bytes[requestClassOffset];
    view.key = getU64(bytes, requestKeyOffset);
    view.count = getU32(bytes, 10);
    view.valueBytes = getU32(bytes, 14);
    if (bytes.size() < requestHeaderBytes + view.valueBytes)
        return std::nullopt;
    view.value = bytes.data() + requestHeaderBytes;
    return view;
}

std::optional<RpcRequest>
decodeRequest(const std::vector<std::uint8_t> &bytes)
{
    const auto view = peekRequest(bytes);
    if (!view)
        return std::nullopt;
    RpcRequest req;
    req.op = view->op;
    req.classId = view->classId;
    req.key = view->key;
    req.count = view->count;
    req.value.assign(view->value, view->value + view->valueBytes);
    return req;
}

std::vector<std::uint8_t>
encodeReply(const RpcReply &reply)
{
    return encodeReply(reply.status, reply.value.data(),
                       reply.value.size());
}

std::vector<std::uint8_t>
encodeReply(RpcStatus status, const std::uint8_t *data, std::size_t n)
{
    std::vector<std::uint8_t> out;
    out.reserve(replyHeaderBytes + n);
    out.push_back(static_cast<std::uint8_t>(status));
    putU32(out, static_cast<std::uint32_t>(n));
    out.insert(out.end(), data, data + n);
    return out;
}

std::optional<ReplyView>
peekReply(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < replyHeaderBytes)
        return std::nullopt;
    if (bytes[0] > static_cast<std::uint8_t>(RpcStatus::Error))
        return std::nullopt;
    ReplyView view;
    view.status = static_cast<RpcStatus>(bytes[0]);
    view.valueBytes = getU32(bytes, 1);
    if (bytes.size() < replyHeaderBytes + view.valueBytes)
        return std::nullopt;
    view.value = bytes.data() + replyHeaderBytes;
    return view;
}

std::optional<RpcReply>
decodeReply(const std::vector<std::uint8_t> &bytes)
{
    const auto view = peekReply(bytes);
    if (!view)
        return std::nullopt;
    RpcReply reply;
    reply.status = view->status;
    reply.value.assign(view->value, view->value + view->valueBytes);
    return reply;
}

} // namespace rpcvalet::app
