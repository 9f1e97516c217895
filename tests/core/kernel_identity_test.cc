/**
 * @file
 * Kernel bit-identity lock: fixed-seed experiments must produce
 * event-for-event identical stats across DES-kernel rewrites.
 *
 * The golden numbers below were recorded with the original
 * std::priority_queue + std::function kernel (pre timer-wheel), at
 * seed 42 (the SystemParams default). The intrusive-event/timer-wheel
 * kernel must preserve the (time, seq) determinism contract exactly:
 * same event order, same executed-event count, bit-identical latency
 * percentiles and throughput. Any divergence here means the kernel
 * changed simulation *behaviour*, not just speed.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of a
 * deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace {

using namespace rpcvalet;

core::RunStats
runConfig(const std::string &policy, const std::string &arrival)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;
    if (!policy.empty())
        cfg.system.policy = ni::PolicySpec::parse(policy);
    if (!arrival.empty())
        cfg.arrival = net::ArrivalSpec::parse(arrival);
    return core::runExperiment(cfg); // cfg.workload defaults to "herd"
}

TEST(KernelIdentity, DefaultConfigMatchesPriorityQueueKernel)
{
    const core::RunStats r = runConfig("", "");
    EXPECT_EQ(r.point.p50Ns, 518.72900000000004);
    EXPECT_EQ(r.point.p99Ns, 1089.02);
    EXPECT_EQ(r.point.achievedRps, 9953790.5426921882);
    EXPECT_EQ(r.executedEvents, 110046u);
    EXPECT_EQ(r.completions, 5500u);
}

TEST(KernelIdentity, JbsqMmpp2ConfigMatchesPriorityQueueKernel)
{
    const core::RunStats r =
        runConfig("jbsq:d=2", "mmpp2:burst=0.1,ratio=10");
    EXPECT_EQ(r.point.p50Ns, 829.81100000000004);
    EXPECT_EQ(r.point.p99Ns, 16898.478999999999);
    EXPECT_EQ(r.point.achievedRps, 8710217.9456972238);
    EXPECT_EQ(r.executedEvents, 111155u);
    EXPECT_EQ(r.completions, 5500u);
}

TEST(KernelIdentity, LossyRetryConfigMatchesSortedOverflowKernel)
{
    // The fault path: request timeouts, jittered exponential backoff
    // and hedges all land beyond the timer wheel's ~2 us horizon, so
    // this is the run that exercises the overflow region. The default
    // "direct" router sends everything to node 0, whose losses tip it
    // into a timeout/retry cycle that keeps many backoff timers in the
    // overflow region at once. Goldens were recorded with the
    // sorted-list overflow the heap replaced.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 10000;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.faults = {"packet-loss:p=0.005"};
    cfg.retry.maxAttempts = 6;
    cfg.retry.baseBackoff = sim::microseconds(5.0);
    cfg.retry.multiplier = 2.0;
    cfg.retry.jitter = 0.2;
    cfg.retry.hedgeAfter = sim::microseconds(20.0);
    const core::RunStats r = core::runExperiment(cfg);
    EXPECT_EQ(r.point.p99Ns, 151136.38500000001);
    EXPECT_EQ(r.executedEvents, 353794u);
    EXPECT_EQ(r.completions, 11000u);
    EXPECT_EQ(r.requestTimeouts, 10277u);
    EXPECT_EQ(r.fault.retries, 6637u);
    EXPECT_EQ(r.fault.hedgesSent, 4041u);
}

TEST(KernelIdentity, ConnLossyRetryConfig)
{
    // Conn-tagged requests under loss: timed-out requests resubmit
    // through the admission gate, hedges inherit their primary's
    // client, and connOnRetired fires on expiry and on a hedge loss.
    // Goldens were recorded before the generator's request lifecycle
    // was folded into one retire and one resubmit path.
    core::ExperimentConfig cfg;
    cfg.warmupRpcs = 2000;
    cfg.measuredRpcs = 20000;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = "bounded-load:c=1.25";
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.connections = conn::parseConnConfig(
        "grouped:clients=512,size=40,slice=20us,qp_capacity=64");
    cfg.faults = {"packet-loss:p=0.02"};
    cfg.retry.maxAttempts = 6;
    cfg.retry.baseBackoff = sim::microseconds(5.0);
    cfg.retry.multiplier = 2.0;
    cfg.retry.jitter = 0.2;
    cfg.retry.hedgeAfter = sim::microseconds(20.0);
    cfg.arrivalRps = 0.5 *
                     core::estimateCapacityRps(cfg.system, cfg.workload) *
                     cfg.cluster.numServerNodes;
    const core::RunStats r = core::runExperiment(cfg);
    EXPECT_EQ(r.executedEvents, 1483570u);
    EXPECT_EQ(r.completions, 22000u);
    EXPECT_EQ(r.requestTimeouts, 282u);
    EXPECT_EQ(r.fault.retries, 58u);
    EXPECT_EQ(r.fault.hedgesSent, 1457u);
    EXPECT_EQ(r.conn.deferredTotal, 48855u);
    EXPECT_EQ(r.conn.groupSwitches, 29u);
}

TEST(KernelIdentity, RepeatedRunsAreBitIdentical)
{
    // The same config run twice in one process must not share hidden
    // kernel state (event pools are per-Simulator).
    const core::RunStats a = runConfig("jbsq:d=2", "");
    const core::RunStats b = runConfig("jbsq:d=2", "");
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
}

} // namespace
