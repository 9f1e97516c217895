/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are (time, sequence) ordered: two events scheduled for the
 * same tick fire in scheduling order, which makes entire simulations
 * bit-reproducible for a given seed.
 *
 * The kernel is allocation-free on the schedule/fire hot path:
 *
 *  - Intrusive events (sim/event.hh): components embed sim::Event
 *    subclasses and schedule them directly — no allocation ever.
 *  - One-shot callbacks: schedule(Tick, Callback) wraps the callable
 *    in a pooled internal event; captures up to 3 pointers are stored
 *    inline (sim/callback.hh), larger ones fall back to the heap.
 *    Prefer a reusable Event for anything carrying bulky payloads
 *    (packets, CQEs) or firing once per RPC.
 *
 * Pending events live in a two-level bucketed timer wheel instead of a
 * binary heap:
 *
 *  - Near future: kNumBuckets buckets of kBucketTicks each (a rotating
 *    ~2 µs horizon at 1 ns granularity). schedule() appends to the
 *    destination bucket in O(1), unsorted. When the wheel reaches a
 *    bucket it is "opened": its events are stably sorted by time once
 *    (append order breaks ties, preserving the (time, seq) FIFO
 *    contract) and then popped from the head in O(1).
 *  - Far future: events beyond the horizon (timeouts, retry backoffs,
 *    sweep timers) wait in an overflow binary min-heap keyed on
 *    (when, seq), where seq counts overflow insertions, and migrate
 *    into buckets as the horizon advances past them. Push, remove and
 *    migrate are O(log n); peeking the earliest is O(1). Each event's
 *    heap slot lives in its otherwise unused prev hook, so removal
 *    needs no search and sizeof(Event) does not grow.
 *
 * A bitmap over buckets makes skipping empty time O(buckets/64) words,
 * and descheduling an in-horizon event is O(1) thanks to the
 * intrusive doubly-linked hooks. Determinism is unchanged from the
 * heap kernel and is locked by tests/core/kernel_identity_test.cc and
 * tests/sim/simulator_diff_test.cc.
 *
 * Threading model
 * ---------------
 * A Simulator (wheel, clock, callback pool) is single-owner state: it
 * is never internally synchronized, and exactly one thread may call
 * schedule/deschedule/run/runUntil at any instant. Parallel runs do
 * not share a wheel — they shard the experiment into sim::EventDomain
 * instances (sim/domain.hh, each is-a Simulator) and hand whole
 * domains to workers across a barrier (core::WindowPool), so every
 * mutation still happens under one owner. There is no process-global
 * "current simulator": components receive their EventDomain& at
 * construction and hold it for life.
 */

#ifndef RPCVALET_SIM_SIMULATOR_HH
#define RPCVALET_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/callback.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace rpcvalet::sim {

/** One-shot event payload: any callable (small captures stay inline). */
using Callback = InplaceCallback;

/** Discrete-event simulator with a monotonically advancing clock. */
class Simulator
{
    /** Raw callables (not Events, not Callbacks) take the template
     *  overloads; everything else keeps the exact-match overloads. */
    template <typename F>
    using EnableIfCallable = std::enable_if_t<
        std::is_invocable_r_v<void, std::decay_t<F> &> &&
        !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
        !std::is_base_of_v<Event, std::decay_t<F>>>;

  public:
    Simulator();
    ~Simulator();

    // Queued events hold pointers into this object; the simulator
    // identity must be stable.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    // ----- intrusive event API (allocation-free) -----

    /** Schedule @p ev to fire @p delay ticks from now. */
    void schedule(Event &ev, Tick delay) { scheduleAt(ev, now_ + delay); }

    /**
     * Schedule @p ev at absolute time @p when. Scheduling in the past
     * or scheduling an already-scheduled event is a simulator bug and
     * panics (use reschedule() to move a pending event). Inline: this
     * is the innermost step of every schedule call.
     */
    void
    scheduleAt(Event &ev, Tick when)
    {
        RV_ASSERT(!ev.scheduled(), "event is already scheduled");
        RV_ASSERT(when >= now_, "event scheduled in the past");
        ev.when_ = when;
        place(ev);
        ++pending_;
    }

    /** Remove a pending event (panics if @p ev is not scheduled). */
    void deschedule(Event &ev);

    /** Move @p ev (scheduled or not) to fire @p delay from now. */
    void reschedule(Event &ev, Tick delay)
    {
        rescheduleAt(ev, now_ + delay);
    }

    /** Move @p ev (scheduled or not) to absolute time @p when. */
    void rescheduleAt(Event &ev, Tick when);

    // ----- one-shot callback shim -----

    /** Schedule @p cb to run @p delay ticks from now. */
    void schedule(Tick delay, Callback cb);

    /**
     * Schedule @p cb at absolute time @p when. Scheduling in the past
     * is a simulator bug and panics.
     */
    void scheduleAt(Tick when, Callback cb);

    /**
     * Hot-path overloads for raw callables: the closure is built
     * directly inside the pooled event, no intermediate Callback.
     */
    template <typename F, typename = EnableIfCallable<F>>
    void
    schedule(Tick delay, F &&f)
    {
        OneShot *ev = oneShots_.acquire();
        ev->cb.emplace(std::forward<F>(f));
        scheduleAt(*ev, now_ + delay);
    }

    template <typename F, typename = EnableIfCallable<F>>
    void
    scheduleAt(Tick when, F &&f)
    {
        OneShot *ev = oneShots_.acquire();
        ev->cb.emplace(std::forward<F>(f));
        scheduleAt(*ev, when);
    }

    // ----- running -----

    /**
     * Run until the event queue drains or stop() is called. Returns the
     * time of the last executed event.
     */
    Tick run();

    /**
     * Run all events with time <= @p until, then set now() to @p until
     * (if not stopped earlier). Returns now().
     */
    Tick runUntil(Tick until);

    /** Ask the main loop to return after the current event. */
    void stop() { stopRequested_ = true; }

    /** True once stop() was called (cleared by the next run call). */
    bool stopRequested() const { return stopRequested_; }

    /** Number of events waiting in the queue. */
    std::size_t pendingEvents() const { return pending_; }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    friend class Event;

    // Wheel geometry: 1024-tick (~1 ns) buckets, 2048 of them — a
    // rotating ~2 µs horizon that covers the common pipeline, mesh and
    // interarrival delays of this model. Both are powers of two so the
    // bucket of a tick is two shifts away.
    static constexpr unsigned kBucketBits = 10;
    static constexpr Tick kBucketTicks = Tick(1) << kBucketBits;
    static constexpr std::size_t kNumBuckets = 2048;
    static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;

    /** Internal pooled event backing the one-shot callback shim. */
    struct OneShot : Event
    {
        InplaceCallback cb;

        void process() override;
        const char *description() const override { return "one-shot"; }
    };

    static std::uint64_t bucketOf(Tick when)
    {
        return when >> kBucketBits;
    }

    static bool listEmpty(const EventLink &head)
    {
        return head.next == &head;
    }

    static void initList(EventLink &head)
    {
        head.next = &head;
        head.prev = &head;
    }

    /** Append @p ev at the tail of @p head (FIFO order). */
    static void appendTo(EventLink &head, Event &ev);

    /**
     * Insert @p ev keeping the open list @p head sorted by (when,
     * insertion order). Scans from the tail: the common pattern (later
     * schedules, later times) makes this O(1) amortized.
     */
    static void
    insertSorted(EventLink &head, Event &ev)
    {
        EventLink *pos = head.prev;
        while (pos != &head &&
               static_cast<Event *>(pos)->when_ > ev.when_)
            pos = pos->prev;
        ev.next = pos->next;
        ev.prev = pos;
        pos->next->prev = &ev;
        pos->next = &ev;
    }

    /** Route a (when-stamped) event into open/bucket/overflow. */
    void
    place(Event &ev)
    {
        const std::uint64_t bucket = bucketOf(ev.when_);
        if (bucket >= cursor_ + kNumBuckets) {
            pushOverflow(ev);
            ev.setState(this, Event::Where::Overflow);
        } else if (bucket == cursor_) {
            insertSorted(open_, ev);
            ev.setState(this, Event::Where::Open);
        } else {
            // when >= now() >= cursor window start, so in-horizon
            // events are never behind the cursor. Push-front:
            // openBucket restores insertion order before anything
            // fires.
            const std::size_t slot =
                static_cast<std::size_t>(bucket & kBucketMask);
            ev.next = buckets_[slot];
            buckets_[slot] = &ev;
            occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
            ev.setState(this, Event::Where::Bucket);
        }
    }

    /** One overflow-heap entry; the key is copied out of the event
     *  so sifting compares without touching event memory. */
    struct OverflowEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;

        bool
        before(const OverflowEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Push @p ev (when-stamped) onto the overflow heap. */
    void pushOverflow(Event &ev);

    /** Remove the overflow entry at heap slot @p slot. */
    void removeOverflow(std::size_t slot);

    /** Store @p entry at heap slot @p slot and record the slot in its
     *  event's prev hook. */
    void
    setOverflowSlot(std::size_t slot, const OverflowEntry &entry)
    {
        overflow_[slot] = entry;
        entry.ev->heapSlot = slot;
    }

    void siftUp(std::size_t slot, OverflowEntry entry);
    void siftDown(std::size_t slot, OverflowEntry entry);

    /** Shared one-shot path: pool an event around @p cb. */
    void scheduleOneShot(Tick when, Callback &&cb);

    /** Unlink from whichever region holds the event. */
    void removeFromQueue(Event &ev);

    /**
     * Earliest pending event without mutating wheel state (runUntil
     * must not advance the cursor for events it will not execute —
     * later schedules may still target the skipped time range).
     */
    Event *peekEarliest();

    /** Pop the earliest pending event (advances the wheel). */
    Event *popEarliest();

    /**
     * Advance the cursor to the next bucket holding work, migrating
     * newly in-horizon overflow events. Returns the target bucket.
     */
    std::uint64_t advanceCursor();

    /** Sort bucket @p target's events into the open list. */
    void openBucket(std::uint64_t target);

    /** Absolute bucket numbers of candidate work, or ~0 if none. */
    std::uint64_t nextOccupiedBucket() const;

    /** Execute the earliest event; false when the queue is empty. */
    bool executeNext();

    void releaseOneShot(OneShot *ev);

    Tick now_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executed_ = 0;
    bool stopRequested_ = false;

    /** Absolute bucket number of the open (currently served) window. */
    std::uint64_t cursor_ = 0;
    /** The open bucket, sorted by (when, insertion). */
    EventLink open_;
    /** Beyond-horizon events: a binary min-heap on (when, seq). */
    std::vector<OverflowEntry> overflow_;
    /** Next overflow insertion's seq (ties break in insertion order). */
    std::uint64_t overflowSeq_ = 0;
    /**
     * In-horizon buckets: singly-linked stacks, newest first (one
     * head pointer each, so a fresh wheel is a small memset and an
     * append is two stores). A bucket is put into (time, seq) order
     * only when opened; descheduling from an unopened bucket walks
     * the few events it holds.
     */
    std::vector<Event *> buckets_;
    /** One bit per bucket: does it hold any events? */
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    /** Scratch for sorting a bucket as it opens (reused, no alloc). */
    std::vector<Event *> sortScratch_;

    // Declared last: destroyed first, after ~Simulator's body has
    // detached any still-pending events, so ~Event sees them idle.
    EventPool<OneShot> oneShots_;
};

/**
 * Open-loop Poisson arrival process: calls a handler for every arrival
 * at a given average rate until stopped. Inter-arrival times are
 * exponential, sampled from a dedicated Rng so arrival sequences do not
 * perturb other components' randomness. The single arrival event is a
 * reusable member event — steady-state generation never allocates.
 */
class PoissonProcess
{
  public:
    using Handler = std::function<void()>;

    /**
     * @param sim        Owning simulator (must outlive the process).
     * @param rate_per_sec Average arrivals per second (> 0).
     * @param rng_seed   Seed for the private inter-arrival Rng.
     * @param handler    Invoked once per arrival.
     */
    PoissonProcess(Simulator &sim, double rate_per_sec,
                   std::uint64_t rng_seed, Handler handler);

    /** Schedule the first arrival. */
    void start();

    /** Cease generating arrivals (already-queued events still fire). */
    void halt() { halted_ = true; }

    /** Arrivals generated so far. */
    std::uint64_t arrivals() const { return arrivals_; }

    /** The configured rate, arrivals per second. */
    double ratePerSec() const { return ratePerSec_; }

  private:
    void fire();
    void scheduleNext();

    Simulator &sim_;
    double ratePerSec_;
    double meanGapNs_;
    Rng rng_;
    Handler handler_;
    bool halted_ = false;
    std::uint64_t arrivals_ = 0;
    MemberEvent<PoissonProcess, &PoissonProcess::fire> event_;
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_SIMULATOR_HH
