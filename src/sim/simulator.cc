#include "sim/simulator.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::sim {

namespace {

constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

} // namespace

Simulator::Simulator() : buckets_(kNumBuckets)
{
    initList(open_);
}

Simulator::~Simulator()
{
    // Detach (do not fire) anything still queued, so the destructors
    // of surviving events — including our own pooled one-shots, whose
    // slab is destroyed after this body — see an idle event. The
    // occupancy bitmap names the buckets worth visiting, so a drained
    // simulator (the common case) skips the whole wheel.
    const auto detach_all = [](EventLink &head) {
        for (EventLink *p = head.next; p != &head;) {
            Event *e = static_cast<Event *>(p);
            p = p->next;
            e->next = nullptr;
            e->prev = nullptr;
            e->simWhere_ = 0;
        }
        initList(head);
    };
    detach_all(open_);
    for (const OverflowEntry &entry : overflow_) {
        entry.ev->next = nullptr;
        entry.ev->prev = nullptr;
        entry.ev->simWhere_ = 0;
    }
    overflow_.clear();
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const unsigned bit =
                static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            Event *&head = buckets_[w * 64 + bit];
            for (Event *e = head; e != nullptr;) {
                Event *next = static_cast<Event *>(e->next);
                e->next = nullptr;
                e->prev = nullptr;
                e->simWhere_ = 0;
                e = next;
            }
            head = nullptr;
        }
    }
    pending_ = 0;
}

void
Simulator::appendTo(EventLink &head, Event &ev)
{
    ev.prev = head.prev;
    ev.next = &head;
    head.prev->next = &ev;
    head.prev = &ev;
}

void
Simulator::siftUp(std::size_t slot, OverflowEntry entry)
{
    while (slot > 0) {
        const std::size_t parent = (slot - 1) / 2;
        if (!entry.before(overflow_[parent]))
            break;
        setOverflowSlot(slot, overflow_[parent]);
        slot = parent;
    }
    setOverflowSlot(slot, entry);
}

void
Simulator::siftDown(std::size_t slot, OverflowEntry entry)
{
    const std::size_t size = overflow_.size();
    for (;;) {
        std::size_t child = 2 * slot + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            overflow_[child + 1].before(overflow_[child]))
            ++child;
        if (!overflow_[child].before(entry))
            break;
        setOverflowSlot(slot, overflow_[child]);
        slot = child;
    }
    setOverflowSlot(slot, entry);
}

void
Simulator::pushOverflow(Event &ev)
{
    overflow_.push_back({});
    siftUp(overflow_.size() - 1, {ev.when_, overflowSeq_++, &ev});
}

void
Simulator::removeOverflow(std::size_t slot)
{
    const OverflowEntry last = overflow_.back();
    overflow_.pop_back();
    if (slot == overflow_.size())
        return;
    // The former last entry fills the hole and moves whichever way
    // restores the heap order.
    if (slot > 0 && last.before(overflow_[(slot - 1) / 2]))
        siftUp(slot, last);
    else
        siftDown(slot, last);
}

void
Simulator::openBucket(std::uint64_t target)
{
    const std::size_t idx = static_cast<std::size_t>(target & kBucketMask);
    Event *head = buckets_[idx];
    if (head == nullptr)
        return;
    buckets_[idx] = nullptr;
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));

    if (head->next == nullptr) {
        // Fast path: one event per ~1 ns bucket is the common shape.
        appendTo(open_, *head);
        head->setWhere(Event::Where::Open);
        return;
    }

    // The chain is newest-first (push-front); rebuild insertion order,
    // then stable-sort by time so append order breaks ties — the
    // (time, seq) FIFO contract. Insertion sort: buckets are small and
    // nearly sorted, and equal-time runs cost O(1) per event.
    sortScratch_.clear();
    for (Event *e = head; e != nullptr;
         e = static_cast<Event *>(e->next))
        sortScratch_.push_back(e);
    std::reverse(sortScratch_.begin(), sortScratch_.end());
    for (std::size_t i = 1; i < sortScratch_.size(); ++i) {
        Event *e = sortScratch_[i];
        std::size_t j = i;
        while (j > 0 && sortScratch_[j - 1]->when_ > e->when_) {
            sortScratch_[j] = sortScratch_[j - 1];
            --j;
        }
        sortScratch_[j] = e;
    }
    for (Event *e : sortScratch_) {
        appendTo(open_, *e);
        e->setWhere(Event::Where::Open);
    }
}

void
Simulator::removeFromQueue(Event &ev)
{
    if (ev.where() == Event::Where::Bucket) {
        // Unopened buckets are singly linked: walk the few events the
        // ~1 ns window holds to find the predecessor.
        const std::size_t slot =
            static_cast<std::size_t>(bucketOf(ev.when_) & kBucketMask);
        Event *&head = buckets_[slot];
        if (head == &ev) {
            head = static_cast<Event *>(ev.next);
        } else {
            Event *p = head;
            RV_ASSERT(p != nullptr, "event missing from its bucket");
            while (p->next != static_cast<EventLink *>(&ev)) {
                RV_ASSERT(p->next != nullptr,
                          "event missing from its bucket");
                p = static_cast<Event *>(p->next);
            }
            p->next = ev.next;
        }
        if (head == nullptr)
            occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    } else if (ev.where() == Event::Where::Overflow) {
        removeOverflow(ev.heapSlot);
    } else {
        ev.prev->next = ev.next;
        ev.next->prev = ev.prev;
    }
    ev.next = nullptr;
    ev.prev = nullptr;
    ev.setWhere(Event::Where::None);
}

void
Simulator::deschedule(Event &ev)
{
    RV_ASSERT(ev.scheduled(), "descheduling an unscheduled event");
    RV_ASSERT(ev.owningSim() == this,
              "event is scheduled on another simulator");
    removeFromQueue(ev);
    --pending_;
}

void
Simulator::rescheduleAt(Event &ev, Tick when)
{
    if (ev.scheduled())
        deschedule(ev);
    scheduleAt(ev, when);
}

void
Simulator::OneShot::process()
{
    Simulator *sim = owningSim();
    // Invoke-and-destroy in one indirect call; captures are dropped
    // before pooling so resources are not held until the next reuse.
    cb.invokeOnce();
    sim->releaseOneShot(this);
}

void
Simulator::releaseOneShot(OneShot *ev)
{
    oneShots_.release(ev);
}

void
Simulator::schedule(Tick delay, Callback cb)
{
    scheduleOneShot(now_ + delay, std::move(cb));
}

void
Simulator::scheduleAt(Tick when, Callback cb)
{
    scheduleOneShot(when, std::move(cb));
}

void
Simulator::scheduleOneShot(Tick when, Callback &&cb)
{
    RV_ASSERT(cb != nullptr, "null event callback");
    OneShot *ev = oneShots_.acquire();
    ev->cb = std::move(cb);
    scheduleAt(*ev, when);
}

std::uint64_t
Simulator::nextOccupiedBucket() const
{
    const std::size_t start =
        static_cast<std::size_t>(cursor_ & kBucketMask);
    const std::size_t start_word = start / 64;
    const unsigned start_bit = static_cast<unsigned>(start % 64);
    // Circular scan beginning at the cursor's word; the first word's
    // low bits (behind the cursor) are rescanned last, as they are a
    // full rotation away.
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        const std::size_t w = (start_word + i) % kBitmapWords;
        std::uint64_t bits = occupied_[w];
        if (i == 0)
            bits &= ~std::uint64_t{0} << start_bit;
        else if (i == kBitmapWords)
            bits &= ~(~std::uint64_t{0} << start_bit);
        if (bits == 0)
            continue;
        const std::size_t slot =
            w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        const std::uint64_t dist =
            (slot + kNumBuckets - start) & kBucketMask;
        RV_ASSERT(dist != 0, "open window's bucket slot is occupied");
        return cursor_ + dist;
    }
    return kNoBucket;
}

std::uint64_t
Simulator::advanceCursor()
{
    std::uint64_t target = nextOccupiedBucket();
    if (target == kNoBucket) {
        RV_ASSERT(!overflow_.empty(), "wheel advance with an empty queue");
        target = bucketOf(overflow_.front().when);
    }
    cursor_ = target;

    // Pull overflow events the new horizon covers back into the wheel.
    // They sit above every in-horizon bucket (or, when the wheel was
    // empty, go straight into the freshly opened window), so the
    // target bucket stays the earliest work.
    while (!overflow_.empty() &&
           bucketOf(overflow_.front().when) < cursor_ + kNumBuckets) {
        Event *e = overflow_.front().ev;
        removeOverflow(0);
        place(*e);
    }
    return target;
}

Event *
Simulator::peekEarliest()
{
    if (pending_ == 0)
        return nullptr;
    if (!listEmpty(open_))
        return static_cast<Event *>(open_.next);
    // Pure scan — peeking must not advance the cursor: when the
    // caller (runUntil) declines to execute the result, later
    // schedules may still target the time range a cursor move would
    // have skipped.
    const std::uint64_t target = nextOccupiedBucket();
    if (target != kNoBucket) {
        // The chain is newest-first, so on equal times the later
        // (earlier-scheduled) element wins: <= keeps the FIFO head.
        Event *best = nullptr;
        for (Event *e = buckets_[target & kBucketMask]; e != nullptr;
             e = static_cast<Event *>(e->next)) {
            if (best == nullptr || e->when_ <= best->when_)
                best = e;
        }
        return best;
    }
    RV_ASSERT(!overflow_.empty(), "timer wheel lost a pending event");
    return overflow_.front().ev;
}

Event *
Simulator::popEarliest()
{
    if (pending_ == 0)
        return nullptr;
    if (listEmpty(open_)) {
        const std::uint64_t target = advanceCursor();
        const std::size_t idx =
            static_cast<std::size_t>(target & kBucketMask);
        Event *bhead = buckets_[idx];
        if (bhead != nullptr && bhead->next == nullptr &&
            listEmpty(open_)) {
            // Fast path: the earliest bucket holds exactly one event —
            // the common shape at ~1 ns granularity — so it pops
            // without touching the open list.
            buckets_[idx] = nullptr;
            occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
            bhead->prev = nullptr;
            bhead->setWhere(Event::Where::None);
            --pending_;
            return bhead;
        }
        openBucket(target);
    }
    RV_ASSERT(!listEmpty(open_), "timer wheel lost a pending event");
    Event *ev = static_cast<Event *>(open_.next);
    ev->prev->next = ev->next;
    ev->next->prev = ev->prev;
    ev->next = nullptr;
    ev->prev = nullptr;
    ev->setWhere(Event::Where::None);
    --pending_;
    return ev;
}

bool
Simulator::executeNext()
{
    Event *ev = popEarliest();
    if (ev == nullptr)
        return false;
    RV_ASSERT(ev->when_ >= now_, "event queue went backwards");
    now_ = ev->when_;
    ++executed_;
    ev->process();
    return true;
}

Tick
Simulator::run()
{
    stopRequested_ = false;
    while (!stopRequested_ && executeNext()) {
    }
    return now_;
}

Tick
Simulator::runUntil(Tick until)
{
    stopRequested_ = false;
    while (!stopRequested_) {
        Event *head = peekEarliest();
        if (head == nullptr || head->when_ > until)
            break;
        executeNext();
    }
    if (!stopRequested_ && now_ < until)
        now_ = until;
    return now_;
}

PoissonProcess::PoissonProcess(Simulator &sim, double rate_per_sec,
                               std::uint64_t rng_seed, Handler handler)
    : sim_(sim), ratePerSec_(rate_per_sec),
      meanGapNs_(1e9 / rate_per_sec), rng_(rng_seed, /*stream=*/0x90150),
      handler_(std::move(handler)), event_(*this, "poisson-arrival")
{
    RV_ASSERT(rate_per_sec > 0.0, "arrival rate must be positive");
    RV_ASSERT(handler_ != nullptr, "arrival handler missing");
}

void
PoissonProcess::start()
{
    scheduleNext();
}

void
PoissonProcess::fire()
{
    if (halted_)
        return;
    ++arrivals_;
    handler_();
    scheduleNext();
}

void
PoissonProcess::scheduleNext()
{
    const Tick gap = nanoseconds(rng_.exponential(meanGapNs_));
    sim_.schedule(event_, gap);
}

} // namespace rpcvalet::sim
