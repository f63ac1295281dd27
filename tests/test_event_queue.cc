/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace limitless
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(2); }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(0); }, EventPriority::network);
    eq.schedule(5, [&]() { order.push_back(3); }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(1); }, EventPriority::deliver);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, SameTickScheduleRunsThisTick)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { inner = true; });
    });
    eq.run();
    EXPECT_TRUE(inner);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t * 10, [&]() { ++count; });
    const auto ran = eq.runUntil(50);
    EXPECT_EQ(ran, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.pendingEvents(), 5u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 17; ++i)
        eq.schedule(i, []() {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 17u);
}

TEST(EventQueue, CallbacksWithSmallCapturesStoreInline)
{
    // The whole point of the inline callback type: the simulator's hot
    // captures ([this], [this, ptr], [this, ptr, tick]) never allocate.
    struct Fake
    {
        int x;
    } fake{0};
    void *p = &fake;
    Tick t = 0;
    auto small = [&fake]() { ++fake.x; };
    auto medium = [&fake, p, t]() { (void)p; (void)t; ++fake.x; };
    static_assert(EventQueue::Callback::fitsInline<decltype(small)>);
    static_assert(EventQueue::Callback::fitsInline<decltype(medium)>);
    EventQueue::Callback cb(std::move(medium));
    EXPECT_TRUE(cb.storedInline());
}

TEST(EventQueue, PoolHoldsPeakPendingNotEveryWheelSlotsPeak)
{
    // Each wave parks kWave events on the next tick, and consecutive
    // waves land on consecutive wheel slots, so over the run every slot
    // takes a burst of kWave while no more than kWave are ever pending.
    // Storage kept per slot would grow to kWave entries in each of the
    // wheel's slots; the pool holds the peak pending count, rounded up
    // to whole chunks.
    constexpr unsigned kWave = 500;
    constexpr unsigned kWaves = 1024 + 100; // every slot, then wrap
    EventQueue eq;
    std::uint64_t ran = 0;
    std::size_t peak = 0;
    for (unsigned w = 0; w < kWaves; ++w) {
        for (unsigned i = 0; i < kWave; ++i)
            eq.schedule(eq.now() + 1, [&ran]() { ++ran; },
                        static_cast<int>(i % 4) * 10);
        peak = std::max(peak, eq.pendingEvents());
        eq.run();
    }
    EXPECT_EQ(ran, std::uint64_t{kWave} * kWaves);
    EXPECT_EQ(peak, kWave);
    EXPECT_GE(eq.entryCapacity(), peak);
    EXPECT_LE(eq.entryCapacity(), 2 * peak);
}

TEST(EventQueue, CallbackSchedulingTenThousandSameTickEventsRunsInOrder)
{
    // One callback schedules far more same-tick events than the pool
    // holds, so the pool grows while that callback is running in place.
    // Its own captures must survive, and the new events must run after
    // it in (priority, seq) order, ahead of a later-priority event that
    // was already pending at the tick.
    static constexpr int kN = 10'000;
    const int prios[] = {EventPriority::cpu, EventPriority::network,
                         EventPriority::ctrl, EventPriority::deliver};
    EventQueue eq;
    std::vector<std::pair<int, int>> ran; // (priority, schedule order)
    const std::uint64_t marker = 0xC0FFEE;
    eq.schedule(5, [&ran]() { ran.emplace_back(EventPriority::stats, kN); },
                EventPriority::stats);
    eq.schedule(
        5,
        [&eq, &ran, &prios, marker]() {
            const std::size_t before = eq.entryCapacity();
            for (int i = 0; i < kN; ++i) {
                const int p = prios[i % 4];
                eq.schedule(eq.now(), [&ran, p, i]() {
                    ran.emplace_back(p, i);
                }, p);
            }
            EXPECT_GT(eq.entryCapacity(), before) << "pool must grow";
            EXPECT_EQ(marker, 0xC0FFEEu);
        },
        EventPriority::cpu);
    eq.run();
    ASSERT_EQ(ran.size(), static_cast<std::size_t>(kN) + 1);
    EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
    EXPECT_EQ(ran.back().first, EventPriority::stats);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_TRUE(eq.empty());
}

/**
 * Property test: the timing-wheel + overflow-heap queue executes a large
 * random schedule in exactly the order a plain (tick, priority, seq)
 * min-heap would. The reference is a std::set ordered by that key —
 * semantically a binary heap with a total order, minus the wheel.
 *
 * Events may reschedule follow-ups (derived deterministically from the
 * parent id), so same-tick insertion during execution, wheel wrap-around
 * and heap->wheel migration are all exercised. Both executions must
 * visit identical id sequences.
 */
TEST(EventQueueProperty, MatchesReferenceHeapOver100kRandomEvents)
{
    constexpr int kInitial = 100'000;
    constexpr std::uint64_t kMaxTick = 1u << 20; // far beyond the wheel
    const std::uint32_t prios[] = {0, 10, 20, 30, 90};

    // Follow-up rule, a pure function of the parent id so the real and
    // reference runs derive the same children without sharing state.
    auto spawns = [](std::uint64_t id) { return id % 7 == 0; };
    auto childDelay = [](std::uint64_t id) { return (id * 2654435761u) % 2000; };
    auto childPrio = [&](std::uint64_t id) { return prios[id % 5]; };

    std::mt19937_64 rng(0xA1ECAFEu);
    std::vector<std::uint64_t> whens(kInitial);
    std::vector<std::uint32_t> initPrios(kInitial);
    for (int i = 0; i < kInitial; ++i) {
        whens[i] = rng() % kMaxTick;
        initPrios[i] = prios[rng() % 5];
    }

    // Real run.
    EventQueue eq;
    std::vector<std::uint64_t> real_order;
    real_order.reserve(kInitial * 2);
    std::uint64_t next_child = kInitial;
    std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
        real_order.push_back(id);
        if (spawns(id)) {
            const std::uint64_t child = next_child++;
            eq.schedule(eq.now() + childDelay(id),
                        [&fire, child]() { fire(child); },
                        childPrio(id));
        }
    };
    for (std::uint64_t i = 0; i < kInitial; ++i)
        eq.schedule(whens[i], [&fire, i]() { fire(i); }, initPrios[i]);
    eq.run();

    // Reference run: pop the (when, priority, seq) minimum each step.
    using Key = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t,
                           std::uint64_t>; // when, prio, seq, id
    std::set<Key> ref;
    std::uint64_t seq = 0;
    for (std::uint64_t i = 0; i < kInitial; ++i)
        ref.insert({whens[i], initPrios[i], seq++, i});
    std::vector<std::uint64_t> ref_order;
    ref_order.reserve(real_order.size());
    std::uint64_t ref_next_child = kInitial;
    while (!ref.empty()) {
        const auto [when, prio, s, id] = *ref.begin();
        ref.erase(ref.begin());
        ref_order.push_back(id);
        if (spawns(id)) {
            const std::uint64_t child = ref_next_child++;
            ref.insert({when + childDelay(id), childPrio(id), seq++, child});
        }
    }

    ASSERT_EQ(real_order.size(), ref_order.size());
    // Element-wise compare without dumping 100k values on failure.
    for (std::size_t i = 0; i < real_order.size(); ++i)
        ASSERT_EQ(real_order[i], ref_order[i]) << "divergence at step " << i;
    EXPECT_EQ(eq.executedEvents(), real_order.size());
}

} // namespace
} // namespace limitless
