/**
 * @file
 * Unit tests for exact percentile computation and warmup handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/latency_recorder.hh"

namespace {

using rpcvalet::sim::nanoseconds;
using rpcvalet::stats::LatencyRecorder;

TEST(LatencyRecorder, EmptyRecorderReportsZeros)
{
    LatencyRecorder rec;
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_DOUBLE_EQ(rec.meanNs(), 0.0);
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 0.0);
    EXPECT_DOUBLE_EQ(rec.maxNs(), 0.0);
}

TEST(LatencyRecorder, MeanOfKnownSamples)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    rec.record(nanoseconds(300));
    EXPECT_DOUBLE_EQ(rec.meanNs(), 200.0);
    EXPECT_EQ(rec.count(), 3u);
}

TEST(LatencyRecorder, WarmupSamplesDiscarded)
{
    LatencyRecorder rec(/*warmup_samples=*/2);
    rec.record(nanoseconds(1000000)); // discarded
    rec.record(nanoseconds(1000000)); // discarded
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    EXPECT_EQ(rec.count(), 2u);
    EXPECT_EQ(rec.observed(), 4u);
    EXPECT_DOUBLE_EQ(rec.meanNs(), 150.0);
}

TEST(LatencyRecorder, PercentileEdgeCases)
{
    LatencyRecorder rec;
    for (int i = 1; i <= 100; ++i)
        rec.record(nanoseconds(i));
    EXPECT_DOUBLE_EQ(rec.percentileNs(0.0), 1.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(100.0), 100.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(50.0), 50.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(99.0), 99.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(1.0), 1.0);
}

TEST(LatencyRecorder, SingleSampleAllPercentiles)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(42));
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(rec.percentileNs(p), 42.0);
}

TEST(LatencyRecorder, PercentileMatchesSortedReference)
{
    // Property: nearest-rank percentile equals the sorted array lookup
    // for random data.
    rpcvalet::sim::Rng rng(5);
    LatencyRecorder rec;
    std::vector<double> ref;
    for (int i = 0; i < 9973; ++i) {
        const double v = rng.uniformRange(0.0, 1e6);
        rec.record(nanoseconds(v));
        ref.push_back(rpcvalet::sim::toNs(nanoseconds(v)));
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const auto rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(ref.size())));
        EXPECT_DOUBLE_EQ(rec.percentileNs(p), ref[rank - 1])
            << "percentile " << p;
    }
}

TEST(LatencyRecorder, SelectionMatchesReferenceUnderTiesAndInterleaving)
{
    // Percentiles come from nth_element on a reused scratch copy that
    // later queries start from partially ordered. Heavy ties, queries
    // in no particular order and new samples between queries must all
    // leave the nearest-rank answer equal to a sorted reference.
    rpcvalet::sim::Rng rng(11);
    LatencyRecorder rec;
    std::vector<rpcvalet::sim::Tick> ref;
    auto add = [&](int n) {
        for (int i = 0; i < n; ++i) {
            // 40 distinct values: every one is repeated ~1,250 times.
            const auto v = nanoseconds(
                static_cast<double>(rng.uniformInt(0, 39) * 25));
            rec.record(v);
            ref.push_back(v);
        }
    };
    add(50000);
    int query = 0;
    for (double p : {99.9, 0.0, 50.0, 100.0, 90.0, 99.0}) {
        std::vector<rpcvalet::sim::Tick> sorted = ref;
        std::sort(sorted.begin(), sorted.end());
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   p / 100.0 * static_cast<double>(sorted.size()))));
        EXPECT_DOUBLE_EQ(rec.percentileNs(p),
                         rpcvalet::sim::toNs(sorted[rank - 1]))
            << "percentile " << p;
        // A second query of the same point reuses the scratch as is.
        EXPECT_DOUBLE_EQ(rec.percentileNs(p),
                         rpcvalet::sim::toNs(sorted[rank - 1]))
            << "repeated percentile " << p;
        if (++query % 2 == 0)
            add(997);
    }
}

TEST(LatencyRecorder, RecordAfterQueryKeepsCorrectness)
{
    // The lazy scratch copy must invalidate on new samples.
    LatencyRecorder rec;
    rec.record(nanoseconds(10));
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 10.0);
    rec.record(nanoseconds(1000));
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 1000.0);
}

TEST(LatencyRecorder, ResetClearsEverything)
{
    LatencyRecorder rec(1);
    rec.record(nanoseconds(5));
    rec.record(nanoseconds(6));
    rec.reset();
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_EQ(rec.observed(), 0u);
    rec.record(nanoseconds(7)); // warmup again after reset
    EXPECT_EQ(rec.count(), 0u);
    rec.record(nanoseconds(8));
    EXPECT_EQ(rec.count(), 1u);
}

TEST(LatencyRecorder, MergeIntoEmptyTargetMovesTheSamples)
{
    LatencyRecorder donor;
    donor.record(nanoseconds(3));
    donor.record(nanoseconds(1));
    donor.record(nanoseconds(2));
    const rpcvalet::sim::Tick *buffer = donor.samples().data();

    LatencyRecorder target;
    target.merge(std::move(donor));
    EXPECT_EQ(target.samples().data(), buffer); // moved, not copied
    EXPECT_EQ(target.samples(),
              (std::vector<rpcvalet::sim::Tick>{
                  nanoseconds(3), nanoseconds(1), nanoseconds(2)}));
    EXPECT_EQ(target.observed(), 3u);
    EXPECT_EQ(donor.count(), 0u);
    EXPECT_EQ(donor.observed(), 0u);
    EXPECT_DOUBLE_EQ(donor.p99Ns(), 0.0);
}

TEST(LatencyRecorder, MergeAppendsAfterExistingSamples)
{
    LatencyRecorder target;
    target.record(nanoseconds(5));
    LatencyRecorder donor;
    donor.record(nanoseconds(7));
    donor.record(nanoseconds(6));

    target.merge(std::move(donor));
    EXPECT_EQ(target.samples(),
              (std::vector<rpcvalet::sim::Tick>{
                  nanoseconds(5), nanoseconds(7), nanoseconds(6)}));
    EXPECT_EQ(target.observed(), 3u);
    EXPECT_DOUBLE_EQ(target.meanNs(), 6.0);
    EXPECT_EQ(donor.count(), 0u);
    EXPECT_EQ(donor.observed(), 0u);
}

TEST(LatencyRecorder, MergeAfterQueryKeepsCorrectness)
{
    // Both sides built their lazy sort caches before the merge; the
    // merged percentiles must reflect every sample.
    LatencyRecorder target;
    target.record(nanoseconds(10));
    EXPECT_DOUBLE_EQ(target.p99Ns(), 10.0);
    LatencyRecorder donor;
    donor.record(nanoseconds(1000));
    donor.record(nanoseconds(1));
    EXPECT_DOUBLE_EQ(donor.p99Ns(), 1000.0);

    target.merge(std::move(donor));
    EXPECT_DOUBLE_EQ(target.percentileNs(0.0), 1.0);
    EXPECT_DOUBLE_EQ(target.percentileNs(50.0), 10.0);
    EXPECT_DOUBLE_EQ(target.p99Ns(), 1000.0);
    EXPECT_DOUBLE_EQ(donor.p99Ns(), 0.0);

    // An emptied recorder records afresh.
    donor.record(nanoseconds(4));
    EXPECT_DOUBLE_EQ(donor.p99Ns(), 4.0);
}

TEST(LatencyRecorder, MaxTracksLargestSample)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(300));
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    EXPECT_DOUBLE_EQ(rec.maxNs(), 300.0);
}

} // namespace
