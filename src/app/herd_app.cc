#include "app/herd_app.hh"

#include "app/service_profiles.hh"
#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::app {

HerdApp::HerdApp(const Params &params)
    : params_(params), table_(params.numKeys * 2),
      processing_(makeHerdProfile())
{
    RV_ASSERT(params_.numKeys > 0, "HERD needs at least one key");
    RV_ASSERT(params_.readFraction >= 0.0 && params_.readFraction <= 1.0,
              "read fraction must be a probability");
    for (std::uint64_t k = 0; k < params_.numKeys; ++k)
        table_.put(k, valueForKey(k));
}

namespace {

/** Byte @p i of key @p key's canonical value: (key * 131 + i) & 0xff,
 *  so client and server can both recompute it. */
std::uint8_t
valueByte(std::uint64_t key, std::uint32_t i)
{
    return static_cast<std::uint8_t>((key * 131 + i) & 0xff);
}

} // namespace

std::vector<std::uint8_t>
HerdApp::valueForKey(std::uint64_t key) const
{
    std::vector<std::uint8_t> value(params_.valueBytes);
    for (std::uint32_t i = 0; i < params_.valueBytes; ++i)
        value[i] = valueByte(key, i);
    return value;
}

std::vector<std::uint8_t>
HerdApp::makeRequest(sim::Rng &client_rng)
{
    RpcRequest req;
    req.key = client_rng.uniformInt(0, params_.numKeys - 1);
    if (client_rng.uniform() < params_.readFraction) {
        req.op = RpcOp::Get;
    } else {
        req.op = RpcOp::Put;
        // PUTs rewrite the canonical value, so GET verification stays
        // valid regardless of interleaving.
        req.value = valueForKey(req.key);
    }
    return encodeRequest(req);
}

HandleResult
HerdApp::handle(const std::vector<std::uint8_t> &request,
                sim::Rng &server_rng)
{
    HandleResult result;
    result.processingNs = processing_->sample(server_rng);

    // Requests are read in place and a GET's reply is encoded straight
    // from the stored value: no intermediate copies on the hot path.
    const auto req = peekRequest(request);
    RpcStatus status = RpcStatus::Error;
    if (req) {
        switch (req->op) {
          case RpcOp::Get:
            if (const auto *value = table_.find(req->key)) {
                result.reply = encodeReply(RpcStatus::Ok, value->data(),
                                           value->size());
                return result;
            }
            status = RpcStatus::NotFound;
            break;
          case RpcOp::Put:
            table_.put(req->key,
                       std::vector<std::uint8_t>(
                           req->value, req->value + req->valueBytes));
            status = RpcStatus::Ok;
            break;
          case RpcOp::Del:
            status = table_.erase(req->key) ? RpcStatus::Ok
                                            : RpcStatus::NotFound;
            break;
          default:
            break;
        }
    }
    result.reply = encodeReply(status, nullptr, 0);
    return result;
}

bool
HerdApp::verifyReply(const std::vector<std::uint8_t> &request,
                     const std::vector<std::uint8_t> &reply) const
{
    const auto req = peekRequest(request);
    const auto rep = peekReply(reply);
    if (!req || !rep)
        return false;
    switch (req->op) {
      case RpcOp::Get:
        // All GET keys are preloaded and PUTs write canonical values,
        // so a GET must return exactly valueForKey(key), checked in
        // place.
        if (rep->status != RpcStatus::Ok ||
            rep->valueBytes != params_.valueBytes)
            return false;
        for (std::uint32_t i = 0; i < rep->valueBytes; ++i) {
            if (rep->value[i] != valueByte(req->key, i))
                return false;
        }
        return true;
      case RpcOp::Put:
        return rep->status == RpcStatus::Ok;
      default:
        return rep->status != RpcStatus::Error;
    }
}

double
HerdApp::meanProcessingNs() const
{
    return processing_->mean();
}

std::vector<RequestClass>
HerdApp::requestClasses() const
{
    // One class: gets and puts share the Fig. 6b processing profile.
    // SLO follows the paper's 10x mean processing time.
    return {RequestClass{name(), true, 10.0 * processing_->mean()}};
}

std::string
HerdApp::name() const
{
    return "herd";
}

} // namespace rpcvalet::app
