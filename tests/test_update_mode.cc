/**
 * @file
 * Update-mode coherence tests (Section 6 extension): writes to
 * designated lines refresh cached copies in place instead of
 * invalidating them.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"

namespace limitless
{
namespace
{

MachineConfig
machineFor(ProtocolParams proto, unsigned nodes = 8)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = proto;
    cfg.seed = 61;
    return cfg;
}

TEST(UpdateMode, WriteRefreshesCachedCopiesWithoutInvalidation)
{
    Machine m(machineFor(protocols::limitlessStall(4, 50)));
    const Addr a = m.addressMap().addrOnNode(0, 0);
    m.policy().markUpdateMode(m.addressMap().lineAddr(a));

    const Addr gate = m.addressMap().addrOnNode(1, 1);
    // Readers cache the line; the writer updates it; readers re-read
    // and must see the new value while keeping their copies resident.
    for (NodeId p = 1; p <= 4; ++p) {
        m.spawnOn(p, [&, a, gate](ThreadApi &t) -> Task<> {
            EXPECT_EQ(co_await t.read(a), 0u);
            co_await t.fetchAdd(gate, 1); // gate is a normal line
            while ((co_await t.read(gate)) != 5)
                co_await t.compute(10);
            EXPECT_EQ(co_await t.read(a), 99u);
        });
    }
    m.spawnOn(5, [&, a, gate](ThreadApi &t) -> Task<> {
        while ((co_await t.read(gate)) != 4)
            co_await t.compute(10);
        co_await t.write(a, 99);
        co_await t.fetchAdd(gate, 1);
    });
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();

    // Every reader still holds the line (no invalidation), refreshed.
    const Addr line = m.addressMap().lineAddr(a);
    for (NodeId p = 1; p <= 4; ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(line);
        ASSERT_NE(cl, nullptr) << "copy at node " << p << " invalidated";
        EXPECT_EQ(cl->state, CacheState::readOnly);
        EXPECT_EQ(arr.words(*cl)[0], 99u);
    }
    EXPECT_GE(m.sumCounter("mem", "write_updates"), 1u);
    // (The gate line is ordinary invalidate-mode, so machine-wide INV
    // counts are nonzero; the update line's copies surviving above is
    // the no-invalidation property.)
}

TEST(UpdateMode, StoreReturnsOldValueAndSerializesAtHome)
{
    Machine m(machineFor(protocols::fullMap()));
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.policy().markUpdateMode(m.addressMap().lineAddr(a));
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        EXPECT_EQ(co_await t.swap(a, 5), 0u);
        EXPECT_EQ(co_await t.swap(a, 7), 5u);
        EXPECT_EQ(co_await t.fetchAdd(a, 3), 7u);
        EXPECT_EQ(co_await t.read(a), 10u);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(UpdateMode, ConcurrentFetchAddsSumExactly)
{
    // Atomicity now lives at the home, not in exclusive ownership.
    Machine m(machineFor(protocols::limitlessStall(2, 50)));
    const Addr a = m.addressMap().addrOnNode(0, 0);
    m.policy().markUpdateMode(m.addressMap().lineAddr(a));
    for (NodeId p = 0; p < 8; ++p) {
        m.spawnOn(p, [a](ThreadApi &t) -> Task<> {
            for (int i = 0; i < 20; ++i)
                co_await t.fetchAdd(a, 1);
        });
    }
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    const Addr line = m.addressMap().lineAddr(a);
    EXPECT_EQ(m.node(0).mem().readLine(line)[0], 8u * 20u);
}

TEST(UpdateMode, MixedUpdateAndInvalidateLinesCoexist)
{
    Machine m(machineFor(protocols::limitlessStall(4, 50)));
    const Addr upd = m.addressMap().addrOnNode(0, 0);
    const Addr inv = m.addressMap().addrOnNode(1, 1);
    m.policy().markUpdateMode(m.addressMap().lineAddr(upd));
    for (NodeId p = 0; p < 8; ++p) {
        m.spawnOn(p, [&, upd, inv](ThreadApi &t) -> Task<> {
            for (int i = 0; i < 10; ++i) {
                co_await t.fetchAdd(upd, 1);
                co_await t.fetchAdd(inv, 1);
                co_await t.read(upd);
                co_await t.compute(5);
            }
        });
    }
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    const Addr uline = m.addressMap().lineAddr(upd);
    const Addr iline = m.addressMap().lineAddr(inv);
    EXPECT_EQ(m.node(0).mem().readLine(uline)[0], 80u);
    // The invalidate-mode counter may end dirty in a cache.
    std::uint64_t v = 0;
    bool dirty = false;
    for (NodeId p = 0; p < 8 && !dirty; ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(iline);
        if (cl && cl->state == CacheState::readWrite) {
            v = arr.words(*cl)[m.addressMap().wordOf(inv)];
            dirty = true;
        }
    }
    if (!dirty)
        v = m.node(1).mem().readLine(iline)[m.addressMap().wordOf(inv)];
    EXPECT_EQ(v, 80u);
}

TEST(UpdateMode, ReadersNeverMissAfterFirstFetch)
{
    // The headline benefit: a producer/consumer pattern where consumers
    // keep hitting in cache across producer writes.
    Machine m(machineFor(protocols::fullMap()));
    const Addr a = m.addressMap().addrOnNode(0, 0);
    m.policy().markUpdateMode(m.addressMap().lineAddr(a));
    const Addr phase = m.addressMap().addrOnNode(1, 1);

    for (NodeId p = 1; p <= 6; ++p) {
        m.spawnOn(p, [&, a, phase](ThreadApi &t) -> Task<> {
            co_await t.read(a); // prime the copy
            co_await t.fetchAdd(phase, 1);
            std::uint64_t last = 0;
            for (int i = 0; i < 30; ++i) {
                const std::uint64_t v = co_await t.read(a);
                EXPECT_GE(v, last);
                last = v;
                co_await t.compute(7);
            }
        });
    }
    m.spawnOn(7, [&, a, phase](ThreadApi &t) -> Task<> {
        while ((co_await t.read(phase)) != 6)
            co_await t.compute(10);
        for (std::uint64_t i = 1; i <= 10; ++i) {
            co_await t.write(a, i);
            co_await t.compute(25);
        }
    });
    ASSERT_TRUE(m.run().completed);

    // Consumers' reads after priming: all hits (the line was never
    // invalidated). Each consumer missed at most twice on this line.
    const std::uint64_t misses = m.sumCounter("cache", "misses");
    const std::uint64_t wupd = m.sumCounter("cache", "wupd");
    EXPECT_EQ(wupd, 10u);
    EXPECT_LT(misses, 40u) << "consumers should hit their updated copies";
}

} // namespace
} // namespace limitless
