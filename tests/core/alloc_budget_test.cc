/**
 * @file
 * Heap-allocation budget of the RPC host path.
 *
 * Host time per simulated RPC is dominated by per-message bookkeeping,
 * so the number of heap allocations per completed RPC is a
 * deterministic proxy for it. This executable replaces the global
 * operator new/delete with counting versions and runs the default HERD
 * 1x16 experiment at two sizes with the same warmup: the difference
 * in allocations divided by the difference in completions is the
 * marginal per-RPC cost, free of setup and harvest allocations that do
 * not scale per message.
 *
 * The remaining per-RPC allocations are the request and reply
 * encodings, the outstanding-request entry, and one payload vector per
 * packet (request, reply and replenish), about 5.3 in all. A change
 * that puts a per-message container or copy back on the path (a
 * packet vector, a decoded value, a reassembly buffer) pushes the
 * count over the budget.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/experiment.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace rpcvalet;

struct Counted
{
    std::uint64_t allocations = 0;
    std::uint64_t completions = 0;
};

Counted
runHerd(std::uint64_t measured)
{
    core::ExperimentConfig cfg; // HERD, RPCValet 1x16, greedy, Poisson
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 2000;
    cfg.measuredRpcs = measured;
    const std::uint64_t before =
        allocations.load(std::memory_order_relaxed);
    const core::RunStats r = core::runExperiment(cfg);
    const std::uint64_t after = allocations.load(std::memory_order_relaxed);
    return Counted{after - before, r.completions};
}

TEST(AllocBudget, HerdAllocationsPerCompletedRpc)
{
    runHerd(1000); // settle lazily built registries and statics
    const Counted small = runHerd(20000);
    const Counted large = runHerd(40000);
    ASSERT_GT(large.completions, small.completions);
    const double perRpc =
        static_cast<double>(large.allocations - small.allocations) /
        static_cast<double>(large.completions - small.completions);
    RecordProperty("allocations_per_rpc", std::to_string(perRpc));
    std::printf("allocations per completed RPC: %.3f\n", perRpc);
    // About 5.3 today; one allocation of headroom.
    EXPECT_LT(perRpc, 6.3) << "heap allocations per extra completed RPC";
}

TEST(AllocBudget, CountIsDeterministic)
{
    // The budget is only a guard if the count does not drift between
    // identical runs.
    runHerd(1000);
    const Counted a = runHerd(5000);
    const Counted b = runHerd(5000);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.completions, b.completions);
}

} // namespace
