#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/host_profiler.hh"

namespace limitless
{

EventQueue::EventQueue() : _slots(wheelSpan)
{
    // Pre-size the overflow heap so steady-state scheduling never grows
    // it; wheel buckets keep whatever capacity they reach, so after
    // warm-up a schedule() is a plain store into an existing vector.
    _overflow.reserve(1024);
}

EventQueue::Index
EventQueue::acquire()
{
    if (_free.empty()) {
        // Push the new chunk's indices high to low so the lowest pops
        // first and a fresh pool fills in address order.
        const auto base = static_cast<Index>(_chunks.size() * chunkSize);
        _chunks.push_back(std::make_unique<Entry[]>(chunkSize));
        for (Index i = chunkSize; i-- > 0;)
            _free.push_back(base + i);
    }
    const Index i = _free.back();
    _free.pop_back();
    return i;
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    assert(when >= _now && "cannot schedule into the past");
    const Index i = acquire();
    Entry &e = entry(i);
    e.when = when;
    e.priority = static_cast<std::uint32_t>(priority);
    e.seq = _seq++;
    e.cb = std::move(cb);
    if (when == _now && _sortedTick == _now) {
        // The current tick's bucket is mid-execution and sorted; insert
        // the new index in order past the cursor so the walk stays the
        // global minimum.
        std::vector<Index> &slot = _slots[when & wheelMask];
        const auto pos = std::lower_bound(
            slot.begin() + static_cast<std::ptrdiff_t>(_cursor), slot.end(),
            i, [this](Index a, Index b) { return earlier(a, b); });
        slot.insert(pos, i);
    } else if (when - _now < wheelSpan)
        wheelInsert(i);
    else {
        _overflow.push_back(i);
        std::push_heap(_overflow.begin(), _overflow.end(),
                       [this](Index a, Index b) { return earlier(b, a); });
    }
    ++_size;
}

void
EventQueue::wheelInsert(Index i)
{
    const std::size_t slot = entry(i).when & wheelMask;
    _slots[slot].push_back(i);
    _occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void
EventQueue::migrateOverflow()
{
    while (!_overflow.empty() &&
           entry(_overflow.front()).when - _now < wheelSpan) {
        std::pop_heap(_overflow.begin(), _overflow.end(),
                      [this](Index a, Index b) { return earlier(b, a); });
        wheelInsert(_overflow.back());
        _overflow.pop_back();
    }
}

Tick
EventQueue::wheelNextTick() const
{
    // Scan the occupancy bitmap circularly from now's slot. Every wheel
    // entry's tick is within [now, now + span), so the first occupied
    // slot at circular distance d holds exactly the events for now + d.
    constexpr std::size_t words = wheelSpan / 64;
    const std::size_t base = _now & wheelMask;
    const std::size_t baseWord = base / 64;
    const unsigned baseBit = base % 64;

    // First word: only bits at or above the base bit belong to [now, ...).
    std::uint64_t w = _occupied[baseWord] & (~std::uint64_t{0} << baseBit);
    if (w)
        return _now + (std::countr_zero(w) - baseBit);
    for (std::size_t i = 1; i <= words; ++i) {
        const std::size_t wi = (baseWord + i) % words;
        w = _occupied[wi];
        if (wi == baseWord) // wrapped: bits below base are now + span - ...
            w &= ~(~std::uint64_t{0} << baseBit);
        if (w) {
            const std::size_t slot = wi * 64 + std::countr_zero(w);
            const std::size_t dist = (slot + wheelSpan - base) & wheelMask;
            return _now + dist;
        }
    }
    return maxTick;
}

Tick
EventQueue::nextEventTick() const
{
    if (_size == 0)
        return maxTick;
    // Un-migrated overflow entries still carry their true tick, so the
    // minimum over both structures is exact without mutating state.
    const Tick wheel = wheelNextTick();
    const Tick over =
        _overflow.empty() ? maxTick : entry(_overflow.front()).when;
    return wheel < over ? wheel : over;
}

void
EventQueue::enterTick()
{
    // Enter the next occupied tick: advance _now, migrate overflow
    // entries the window now covers, and sort the tick's bucket once
    // so the cursor walk pops minima in O(1).
    const Tick t = nextEventTick();
    assert(t != maxTick && t >= _now);
    _now = t;
    migrateOverflow();

    std::vector<Index> &entered = _slots[t & wheelMask];
    assert(!entered.empty());
    std::sort(entered.begin(), entered.end(),
              [this](Index a, Index b) { return earlier(a, b); });
    _sortedTick = t;
    _cursor = 0;
}

void
EventQueue::finishBucket()
{
    const std::size_t s = _now & wheelMask;
    _slots[s].clear();
    _cursor = 0;
    _sortedTick = maxTick;
    _occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
}

void
EventQueue::dispatchNext()
{
    const Index i = _slots[_now & wheelMask][_cursor];
    ++_cursor;
    --_size;
    ++_executed;
    // The pool never moves an entry, so the callback runs where it was
    // stored even when it schedules enough to grow the pool; its entry
    // is not free until it returns.
    Entry &e = entry(i);
    e.cb();
    e.cb.reset();
    _free.push_back(i);
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;

    if (_sortedTick != _now)
        enterTick();

    assert(_cursor < _slots[_now & wheelMask].size());
    dispatchNext();

    // Entries behind the cursor are spent; once the callback has had its
    // chance to add same-tick work, a fully-walked bucket resets.
    if (_cursor >= _slots[_now & wheelMask].size())
        finishBucket();
    return true;
}

std::uint64_t
EventQueue::runBurst(std::uint64_t max)
{
    PROF_SCOPE("eq.burst");
    std::uint64_t n = 0;
    while (n < max && _size != 0) {
        if (_sortedTick != _now)
            enterTick();
        // Dispatch the whole bucket through one tight loop. The bucket is
        // re-read every iteration: a callback's same-tick schedule() can
        // insert into it (and reallocate it).
        const std::vector<Index> &bucket = _slots[_now & wheelMask];
        while (n < max && _cursor < bucket.size()) {
            dispatchNext();
            ++n;
        }
        if (_cursor >= bucket.size())
            finishBucket();
    }
    return n;
}

void
EventQueue::advanceTo(Tick t)
{
    assert(t >= _now && "cannot advance into the past");
    assert(_sortedTick == maxTick && "advanceTo with a bucket mid-walk");
    assert(nextEventTick() >= t && "advanceTo would skip pending events");
    // Every wheel entry was inserted with when - now < span at a now no
    // later than t, and none is earlier than t, so all occupied slots
    // stay inside the new [t, t + span) window: no rehash needed.
    _now = t;
}

std::uint64_t
EventQueue::runTickBelow(Tick t, int prioLimit)
{
    const auto limit = static_cast<std::uint32_t>(prioLimit);
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() == t) {
        if (_sortedTick != t)
            enterTick();
        const std::vector<Index> &bucket = _slots[t & wheelMask];
        if (entry(bucket[_cursor]).priority >= limit)
            break; // bucket stays mid-walk for runTickRemainder()
        dispatchNext();
        ++n;
        if (_cursor >= bucket.size())
            finishBucket();
    }
    return n;
}

std::uint64_t
EventQueue::runTickRemainder(Tick t)
{
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() == t) {
        if (_sortedTick != t)
            enterTick();
        dispatchNext();
        ++n;
        if (_cursor >= _slots[t & wheelMask].size())
            finishBucket();
    }
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() <= limit) {
        runOne();
        ++n;
    }
    if (_now < limit)
        _now = limit;
    return n;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

} // namespace limitless
