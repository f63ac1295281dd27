/**
 * @file
 * Combining-tree barrier and spin-lock tests over real coherent shared
 * memory, across protocols and tree arities.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hh"
#include "workload/barrier.hh"
#include "workload/spin_lock.hh"

namespace limitless
{
namespace
{

MachineConfig
machineFor(ProtocolParams proto, unsigned nodes)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = proto;
    cfg.seed = 31;
    return cfg;
}

/** All threads alternate compute and barrier; phases must stay aligned. */
void
runBarrierPhaseTest(ProtocolParams proto, unsigned nodes, unsigned fan_in,
                    unsigned episodes)
{
    Machine m(machineFor(proto, nodes));
    CombiningTreeBarrier barrier(m.addressMap(), nodes, fan_in);
    std::vector<unsigned> phase(nodes, 0);
    std::vector<unsigned> violations(nodes, 0);

    for (unsigned p = 0; p < nodes; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            for (unsigned e = 1; e <= episodes; ++e) {
                co_await t.compute(1 + (p * 7) % 23); // skewed arrivals
                ++phase[p];
                co_await barrier.wait(t, p);
                // After the barrier, no thread may still be in an
                // earlier phase.
                for (unsigned q = 0; q < nodes; ++q)
                    if (phase[q] < e)
                        ++violations[p];
            }
        });
    }
    ASSERT_TRUE(m.run().completed);
    for (unsigned p = 0; p < nodes; ++p) {
        EXPECT_EQ(violations[p], 0u) << "proc " << p;
        EXPECT_EQ(barrier.episodes(p), episodes);
    }
}

TEST(Barrier, SynchronizesAllProcsFullMap)
{
    runBarrierPhaseTest(protocols::fullMap(), 16, 2, 6);
}

TEST(Barrier, SynchronizesUnderLimitedDirectory)
{
    runBarrierPhaseTest(protocols::dirNB(2), 16, 2, 6);
}

TEST(Barrier, SynchronizesUnderLimitless)
{
    runBarrierPhaseTest(protocols::limitlessStall(4, 50), 16, 2, 6);
}

TEST(Barrier, WideFanInWorksToo)
{
    runBarrierPhaseTest(protocols::fullMap(), 16, 4, 4);
}

TEST(Barrier, FanInLargerThanProcsDegeneratesToOneNode)
{
    runBarrierPhaseTest(protocols::fullMap(), 3, 8, 5);
}

TEST(Barrier, SingleParticipantNeverBlocks)
{
    Machine m(machineFor(protocols::fullMap(), 1));
    CombiningTreeBarrier barrier(m.addressMap(), 1, 2);
    m.spawnOn(0, [&](ThreadApi &t) -> Task<> {
        for (int e = 0; e < 4; ++e)
            co_await barrier.wait(t, 0);
    });
    EXPECT_TRUE(m.run().completed);
    EXPECT_EQ(barrier.episodes(0), 4u);
}

TEST(Barrier, TreeSizeMatchesFanIn)
{
    AddressMap amap(64, 16);
    CombiningTreeBarrier b2(amap, 64, 2);
    CombiningTreeBarrier b4(amap, 64, 4);
    EXPECT_EQ(b4.treeNodes(), 16u + 4u + 1u);
    EXPECT_EQ(b2.treeNodes(), 32u + 16u + 8u + 4u + 2u + 1u);
}

// --------------------------------------------------------------- SpinLock

std::uint64_t
slotBase()
{
    return 0x2037;
}

void
runLockTest(ProtocolParams proto)
{
    const unsigned nodes = 8;
    const unsigned iters = 15;
    Machine m(machineFor(proto, nodes));
    SpinLock lock(m.addressMap().addrOnNode(0, slotBase()));
    const Addr counter = m.addressMap().addrOnNode(1, slotBase() + 1);
    unsigned in_section = 0;
    unsigned violations = 0;

    for (unsigned p = 0; p < nodes; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            for (unsigned i = 0; i < iters; ++i) {
                co_await lock.acquire(t);
                if (++in_section != 1)
                    ++violations; // mutual exclusion broken
                const std::uint64_t v = co_await t.read(counter);
                co_await t.compute(3);
                co_await t.write(counter, v + 1);
                --in_section;
                co_await lock.release(t);
            }
        });
    }
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(violations, 0u);
    // The unlocked read-modify-write is race-free under the lock, so the
    // count is exact.
    const Addr line = m.addressMap().lineAddr(counter);
    std::uint64_t v = 0;
    bool found = false;
    for (unsigned p = 0; p < nodes && !found; ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(line);
        if (cl && cl->state == CacheState::readWrite) {
            v = arr.words(*cl)[m.addressMap().wordOf(counter)];
            found = true;
        }
    }
    if (!found)
        v = m.node(1).mem().readLine(line)[m.addressMap().wordOf(counter)];
    EXPECT_EQ(v, nodes * iters);
}

TEST(SpinLock, MutualExclusionFullMap)
{
    runLockTest(protocols::fullMap());
}

TEST(SpinLock, MutualExclusionLimitedDir)
{
    runLockTest(protocols::dirNB(2));
}

TEST(SpinLock, MutualExclusionLimitless)
{
    runLockTest(protocols::limitlessStall(2, 50));
}

TEST(SpinLock, MutualExclusionChained)
{
    runLockTest(protocols::chained());
}

} // namespace
} // namespace limitless
