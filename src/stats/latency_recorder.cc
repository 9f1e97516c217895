#include "stats/latency_recorder.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::stats {

LatencyRecorder::LatencyRecorder(std::uint64_t warmup_samples)
    : warmup_(warmup_samples)
{
}

void
LatencyRecorder::record(sim::Tick latency)
{
    ++observed_;
    if (observed_ <= warmup_)
        return;
    samples_.push_back(latency);
    scratchValid_ = false;
}

double
LatencyRecorder::meanNs() const
{
    if (samples_.empty())
        return 0.0;
    // Sum in double; individual ticks fit in 53 bits for any realistic
    // latency, and the running sum tolerates the rounding.
    double sum = 0.0;
    for (sim::Tick t : samples_)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(samples_.size()) /
           static_cast<double>(sim::ticksPerNs);
}

double
LatencyRecorder::percentileNs(double p) const
{
    RV_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (samples_.empty())
        return 0.0;
    if (!scratchValid_) {
        scratch_ = samples_;
        scratchValid_ = true;
    }
    // Nearest-rank: ceil(p/100 * N), 1-based; p=0 is rank 1.
    const auto n = static_cast<double>(scratch_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::min(rank, scratch_.size());
    rank = std::max<std::size_t>(rank, 1);
    // Selection, not a sort: the scratch copy stays a permutation of
    // the samples, so each query is O(N) and later queries reuse it.
    const auto nth = scratch_.begin() + static_cast<long>(rank - 1);
    std::nth_element(scratch_.begin(), nth, scratch_.end());
    return sim::toNs(*nth);
}

double
LatencyRecorder::maxNs() const
{
    if (samples_.empty())
        return 0.0;
    return sim::toNs(*std::max_element(samples_.begin(), samples_.end()));
}

void
LatencyRecorder::reset()
{
    observed_ = 0;
    samples_.clear();
    scratch_.clear();
    scratchValid_ = false;
}

void
LatencyRecorder::merge(LatencyRecorder &&donor)
{
    observed_ += donor.observed_;
    if (samples_.empty()) {
        samples_ = std::move(donor.samples_);
    } else {
        samples_.insert(samples_.end(), donor.samples_.begin(),
                        donor.samples_.end());
    }
    scratchValid_ = false;
    donor.reset();
}

} // namespace rpcvalet::stats
