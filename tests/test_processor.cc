/**
 * @file
 * Processor-model tests: coroutine thread programs, hit/miss timing,
 * context switching on remote misses only, multi-context interleaving,
 * trap stalls, and the atomic read-modify-write primitives.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "machine/machine.hh"

namespace limitless
{
namespace
{

MachineConfig
tinyMachine(unsigned nodes = 4)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = protocols::fullMap();
    cfg.seed = 21;
    return cfg;
}

TEST(Processor, ComputeAdvancesSimulatedTime)
{
    Machine m(tinyMachine());
    Tick seen = 0;
    m.spawnOn(0, [&seen](ThreadApi &t) -> Task<> {
        const Tick start = t.now();
        co_await t.compute(100);
        seen = t.now() - start;
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(seen, 100u);
}

TEST(Processor, ZeroCycleComputeDoesNotSuspend)
{
    Machine m(tinyMachine());
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        const Tick start = t.now();
        co_await t.compute(0);
        EXPECT_EQ(t.now(), start);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(Processor, LoadReturnsStoredValue)
{
    Machine m(tinyMachine());
    const Addr a = m.addressMap().addrOnNode(1, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        co_await t.write(a, 1234);
        const std::uint64_t v = co_await t.read(a);
        EXPECT_EQ(v, 1234u);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(Processor, CacheHitIsFastRemoteMissIsSlow)
{
    Machine m(tinyMachine());
    const Addr remote = m.addressMap().addrOnNode(3, 0);
    Tick miss_t = 0, hit_t = 0;
    m.spawnOn(0, [&, remote](ThreadApi &t) -> Task<> {
        Tick s = t.now();
        co_await t.read(remote);
        miss_t = t.now() - s;
        s = t.now();
        co_await t.read(remote);
        hit_t = t.now() - s;
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_GE(miss_t, 10u);
    EXPECT_LE(hit_t, 3u);
    EXPECT_GT(miss_t, 4 * hit_t);
}

TEST(Processor, FetchAddReturnsOldValueAtomically)
{
    Machine m(tinyMachine());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        EXPECT_EQ(co_await t.fetchAdd(a, 5), 0u);
        EXPECT_EQ(co_await t.fetchAdd(a, 3), 5u);
        EXPECT_EQ(co_await t.read(a), 8u);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(Processor, SwapExchanges)
{
    Machine m(tinyMachine());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        EXPECT_EQ(co_await t.swap(a, 42), 0u);
        EXPECT_EQ(co_await t.swap(a, 43), 42u);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(Processor, ConcurrentFetchAddsFromManyNodesSumExactly)
{
    Machine m(tinyMachine(4));
    const Addr a = m.addressMap().addrOnNode(0, 0);
    for (NodeId p = 0; p < 4; ++p) {
        m.spawnOn(p, [a](ThreadApi &t) -> Task<> {
            for (int i = 0; i < 25; ++i)
                co_await t.fetchAdd(a, 1);
        });
    }
    ASSERT_TRUE(m.run().completed);
    // Final value: read through a fresh access on node 0's memory.
    const Addr line = m.addressMap().lineAddr(a);
    std::uint64_t v = 0;
    bool dirty = false;
    for (NodeId p = 0; p < 4 && !dirty; ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(line);
        if (cl && cl->state == CacheState::readWrite) {
            v = arr.words(*cl)[0];
            dirty = true;
        }
    }
    if (!dirty)
        v = m.node(0).mem().readLine(line)[0];
    EXPECT_EQ(v, 100u);
}

TEST(Processor, ContextSwitchOnlyOnRemoteMisses)
{
    MachineConfig cfg = tinyMachine(4);
    Machine m(cfg);
    const Addr remote = m.addressMap().addrOnNode(2, 0);
    const Addr local = m.addressMap().addrOnNode(0, 1);
    // Two contexts on node 0: one blocks remotely, the other computes.
    m.spawnOn(0, [remote](ThreadApi &t) -> Task<> {
        co_await t.read(remote);
    });
    m.spawnOn(0, [local](ThreadApi &t) -> Task<> {
        co_await t.read(local); // local miss: no switch charged for this
        co_await t.compute(5);
    });
    ASSERT_TRUE(m.run().completed);
    const auto *sw = static_cast<const Counter *>(
        m.node(0).statSet("proc")->find("switches"));
    const auto *rm = static_cast<const Counter *>(
        m.node(0).statSet("proc")->find("remote_misses"));
    EXPECT_GE(rm->value(), 1u);
    EXPECT_GE(sw->value(), 1u);
}

TEST(Processor, MultipleContextsOverlapRemoteLatency)
{
    // With context switching, two threads issuing remote misses finish
    // faster than twice the single-thread time.
    auto run_with_threads = [&](unsigned threads) {
        Machine m(tinyMachine(16)); // 4x4 mesh: remote latency >> switch
        const AddressMap &amap = m.addressMap();
        for (unsigned c = 0; c < threads; ++c) {
            m.spawnOn(0, [&amap, c](ThreadApi &t) -> Task<> {
                for (unsigned i = 0; i < 20; ++i)
                    co_await t.read(amap.addrOnNode(
                        15, c * 64 + i)); // distinct cold far lines
            });
        }
        const RunResult r = m.run();
        EXPECT_TRUE(r.completed);
        return r.cycles;
    };
    const Tick one = run_with_threads(1);
    const Tick two = run_with_threads(2);
    EXPECT_LT(two, 2 * one) << "latency tolerance via rapid switching";
}

TEST(Processor, StallForDelaysApplicationWork)
{
    Machine m(tinyMachine());
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        co_await t.compute(10);
        co_await t.compute(10);
    });
    m.node(0).processor().stallFor(500);
    const RunResult r = m.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.cycles, 500u);
    EXPECT_EQ(m.node(0).processor().stallCycles(), 500u);
}

TEST(Processor, SpawnBeyondHardwareContextsAborts)
{
    MachineConfig cfg = tinyMachine();
    cfg.proc.contexts = 2;
    Machine m(cfg);
    auto noop = [](ThreadApi &t) -> Task<> { co_await t.compute(1); };
    m.spawnOn(0, noop);
    m.spawnOn(0, noop);
    EXPECT_DEATH(m.spawnOn(0, noop), "more threads");
}

TEST(Processor, SequentialConsistencyWithinAThread)
{
    // Program order: a store followed by a load to a *different* address
    // completes in order (the processor blocks on each access).
    Machine m(tinyMachine());
    const Addr x = m.addressMap().addrOnNode(1, 0);
    const Addr y = m.addressMap().addrOnNode(2, 0);
    std::vector<int> order;
    m.spawnOn(0, [&, x, y](ThreadApi &t) -> Task<> {
        co_await t.write(x, 1);
        order.push_back(1);
        co_await t.read(y);
        order.push_back(2);
        co_await t.write(y, 2);
        order.push_back(3);
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

} // namespace
} // namespace limitless
