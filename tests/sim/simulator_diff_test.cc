/**
 * @file
 * Differential test of the DES kernel against a reference model.
 *
 * A Simulator and a std::multimap keyed on (when, scheduling seq) are
 * driven in lockstep through thousands of seeded random operations:
 * schedule, deschedule, reschedule, one-shot callbacks, runUntil and
 * run. Every firing must be the reference's earliest entry, so the
 * two produce an identical firing sequence. Delays span zero to 100x
 * the timer wheel's ~2 us horizon. Target times are reused, so many
 * same-tick ties straddle the horizon boundary: some parties were
 * scheduled while the tick lay in the overflow heap, others after it
 * came within the wheel. Fired events schedule, reschedule and
 * deschedule others from inside process().
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;
using sim::Tick;

/** The wheel's horizon: 2048 buckets of 1024 ticks (sim/simulator.hh). */
constexpr Tick kHorizon = Tick{2048} << 10;

class Harness;

/** An intrusive event that reports its firing to the harness. */
struct ProbeEvent : sim::Event
{
    Harness *harness = nullptr;
    int id = 0;

    void process() override;
};

class Harness
{
  public:
    explicit Harness(std::uint64_t seed) : rng_(seed, /*stream=*/0xd1ff)
    {
        for (int i = 0; i < kEvents; ++i) {
            events_[i].harness = this;
            events_[i].id = i;
        }
    }

    /** Apply one random top-level operation to both queues. */
    void
    step()
    {
        const double r = rng_.uniform();
        if (r < 0.25) {
            rescheduleOrSchedule(pickEvent(), pickWhen());
        } else if (r < 0.37) {
            const int id = pickEvent();
            if (events_[id].scheduled())
                deschedule(id);
        } else if (r < 0.45) {
            scheduleOneShot(pickWhen());
        } else if (r < 0.55) {
            // A burst of same-tick events: ties within one call.
            const Tick when = pickWhen();
            const int n = 2 + static_cast<int>(below(6));
            for (int i = 0; i < n; ++i)
                rescheduleOrSchedule(pickEvent(), when);
        } else if (r < 0.985) {
            runUntil(sim_.now() + pickAdvance());
        } else {
            sim_.run();
            EXPECT_TRUE(ref_.empty()) << "run() left events behind";
        }
        EXPECT_EQ(sim_.pendingEvents(), ref_.size());
    }

    /** Called from process() of every fired event. */
    void
    fired(int id)
    {
        ++fired_;
        if (ref_.empty()) {
            ADD_FAILURE() << "simulator fired " << id
                          << " with the reference queue empty";
            diverged_ = true;
            sim_.stop();
            return;
        }
        const auto head = ref_.begin();
        if (head->first.first != sim_.now() || head->second != id) {
            ADD_FAILURE() << "firing #" << fired_ << ": simulator ran "
                          << id << " at " << sim_.now()
                          << ", reference expects " << head->second
                          << " at " << head->first.first;
            diverged_ = true;
            sim_.stop();
            return;
        }
        if (sim_.now() == lastFiredAt_)
            ++tiedFires_;
        lastFiredAt_ = sim_.now();
        if (id < kEvents)
            refPos_[id] = ref_.end();
        ref_.erase(head);
        EXPECT_EQ(sim_.pendingEvents(), ref_.size());
        nestedOps(id);
    }

    bool diverged() const { return diverged_; }
    std::uint64_t firedCount() const { return fired_; }
    std::uint64_t tiedFires() const { return tiedFires_; }

  private:
    static constexpr int kEvents = 96;

    using Key = std::pair<Tick, std::uint64_t>;
    using Reference = std::multimap<Key, int>;

    /** Uniform integer in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return rng_.uniformInt(0, n - 1);
    }

    int
    pickEvent()
    {
        return static_cast<int>(below(kEvents));
    }

    /** Round @p when up to a multiple of @p grid (ties on purpose). */
    static Tick
    snap(Tick when, Tick grid)
    {
        return (when + grid - 1) / grid * grid;
    }

    /** An absolute firing time at or after now(). */
    Tick
    pickWhen()
    {
        const Tick now = sim_.now();
        const double r = rng_.uniform();
        Tick when;
        if (r < 0.15 && !recentWhens_.empty()) {
            // Reuse a time picked earlier, possibly when it lay beyond
            // the horizon: a tie that straddles the boundary.
            when = recentWhens_[below(recentWhens_.size())];
            if (when < now)
                when = now;
        } else if (r < 0.25) {
            when = now;
        } else if (r < 0.45) {
            when = now + below(4 << 10);
        } else if (r < 0.7) {
            // Around the horizon boundary, on a bucket-sized grid.
            when = snap(now + kHorizon - (8 << 10) + below(16 << 10),
                        Tick{1} << 10);
        } else {
            when = snap(now + below(100 * kHorizon), kHorizon / 16);
        }
        if (recentWhens_.size() < 64)
            recentWhens_.push_back(when);
        else
            recentWhens_[below(recentWhens_.size())] = when;
        return when;
    }

    /** How far one runUntil moves the clock. */
    Tick
    pickAdvance()
    {
        const double r = rng_.uniform();
        if (r < 0.3)
            return below(4 << 10);
        if (r < 0.7)
            return below(2 * kHorizon);
        return below(40 * kHorizon);
    }

    void
    addRef(int id, Tick when)
    {
        const auto it = ref_.emplace(Key{when, seq_++}, id);
        if (id < kEvents)
            refPos_[id] = it;
    }

    void
    rescheduleOrSchedule(int id, Tick when)
    {
        if (events_[id].scheduled())
            ref_.erase(refPos_[id]);
        sim_.rescheduleAt(events_[id], when);
        addRef(id, when);
    }

    void
    deschedule(int id)
    {
        sim_.deschedule(events_[id]);
        ref_.erase(refPos_[id]);
        refPos_[id] = ref_.end();
    }

    void
    scheduleOneShot(Tick when)
    {
        const int id = nextOneShot_++;
        sim_.scheduleAt(when, [this, id] { fired(id); });
        addRef(id, when);
    }

    void
    runUntil(Tick until)
    {
        sim_.runUntil(until);
        if (diverged_)
            return;
        EXPECT_EQ(sim_.now(), until);
        EXPECT_TRUE(ref_.empty() || ref_.begin()->first.first > until)
            << "runUntil(" << until << ") left a due event pending";
    }

    /** What a fired event does to the queue (subcritical: on average
     *  fewer than one new event per firing, so run() terminates). */
    void
    nestedOps(int self)
    {
        const double r = rng_.uniform();
        if (r < 0.2) {
            rescheduleOrSchedule(pickEvent(), pickWhen());
        } else if (r < 0.35) {
            const int id = pickEvent();
            if (events_[id].scheduled())
                deschedule(id);
        } else if (r < 0.45 && self < kEvents) {
            rescheduleOrSchedule(self, pickWhen());
        } else if (r < 0.5) {
            scheduleOneShot(pickWhen());
        } else if (r < 0.55) {
            // Same-tick follow-ups, including at now().
            const int id = pickEvent();
            rescheduleOrSchedule(id, sim_.now());
        }
    }

    sim::Simulator sim_;
    sim::Rng rng_;
    std::array<ProbeEvent, kEvents> events_;
    Reference ref_;
    std::array<Reference::iterator, kEvents> refPos_{};
    std::uint64_t seq_ = 0;
    std::vector<Tick> recentWhens_;
    int nextOneShot_ = kEvents;
    std::uint64_t fired_ = 0;
    std::uint64_t tiedFires_ = 0;
    Tick lastFiredAt_ = ~Tick{0};
    bool diverged_ = false;
};

void
ProbeEvent::process()
{
    harness->fired(id);
}

TEST(SimulatorDiff, RandomOperationsMatchReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Harness h(seed);
        for (int op = 0; op < 4000 && !h.diverged(); ++op)
            h.step();
        EXPECT_FALSE(h.diverged());
        // Not vacuous: thousands of firings, many of them ties.
        EXPECT_GT(h.firedCount(), 1000u);
        EXPECT_GT(h.tiedFires(), 100u);
    }
}

/** Records the ids of fired events in order. */
struct OrderEvent : sim::Event
{
    std::vector<int> *order = nullptr;
    int id = 0;

    void process() override { order->push_back(id); }
};

TEST(SimulatorDiff, TiesStraddlingTheHorizonFireInScheduleOrder)
{
    sim::Simulator s;
    std::vector<int> order;
    std::array<OrderEvent, 16> ev;
    for (int i = 0; i < 16; ++i) {
        ev[i].order = &order;
        ev[i].id = i;
    }
    const Tick t = 3 * kHorizon;
    // Beyond the horizon: 0..7 wait in the overflow region.
    for (int i = 0; i < 8; ++i)
        s.scheduleAt(ev[i], t);
    // A marker half a horizon before t moves the wheel, so t comes
    // within it; 8..15 then go straight into t's bucket.
    OrderEvent marker;
    marker.order = &order;
    marker.id = -1;
    s.scheduleAt(marker, t - kHorizon / 2);
    s.runUntil(t - kHorizon / 2);
    for (int i = 8; i < 16; ++i)
        s.scheduleAt(ev[i], t);
    // Moves to the back of the tie; removals on both sides.
    s.rescheduleAt(ev[2], t);
    s.deschedule(ev[5]);
    s.deschedule(ev[12]);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 3, 4, 6, 7, 8, 9, 10, 11,
                                       13, 14, 15, 2}));
    EXPECT_EQ(s.now(), t);
}

} // namespace
