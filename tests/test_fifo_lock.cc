/**
 * @file
 * FIFO lock service tests (Section 6 extension): mutual exclusion,
 * exact counting under contention, strict first-come-first-served grant
 * order, and coexistence with shared-memory coherence traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hh"
#include "kernel/fifo_lock.hh"
#include "workload/workload.hh"

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
    cfg.seed = 41;
    return cfg;
}

void
runLockWorkload(Machine &m, FifoLockService &lock, unsigned iters,
                unsigned &violations, Addr counter)
{
    unsigned in_section = 0;
    for (NodeId p = 0; p < m.numNodes(); ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            for (unsigned i = 0; i < iters; ++i) {
                co_await lock.acquire(t);
                if (++in_section != 1)
                    ++violations;
                const std::uint64_t v = co_await t.read(counter);
                co_await t.compute(4);
                co_await t.write(counter, v + 1);
                --in_section;
                co_await lock.release(t);
                co_await t.compute(1 + (p * 5) % 17);
            }
        });
    }
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(violations, 0u);
}

std::uint64_t
finalWord(Machine &m, Addr a)
{
    const Addr line = m.addressMap().lineAddr(a);
    for (NodeId p = 0; p < m.numNodes(); ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(line);
        if (cl && cl->state == CacheState::readWrite)
            return arr.words(*cl)[m.addressMap().wordOf(a)];
    }
    return m.node(m.addressMap().homeOf(a))
        .mem()
        .readLine(line)[m.addressMap().wordOf(a)];
}

TEST(FifoLock, MutualExclusionAndExactCount)
{
    for (const auto &proto :
         {protocols::fullMap(), protocols::limitlessStall(4, 50),
          protocols::limitlessEmulated(4)}) {
        Machine m(machineFor(proto));
        FifoLockService lock(m, /*home=*/2, /*id=*/7);
        const Addr counter = m.addressMap().addrOnNode(1, slot::locks);
        unsigned violations = 0;
        runLockWorkload(m, lock, 10, violations, counter);
        EXPECT_EQ(finalWord(m, counter), 8u * 10u) << proto.name();
    }
}

TEST(FifoLock, GrantsFollowRequestArrivalOrder)
{
    Machine m(machineFor(protocols::fullMap()));
    FifoLockService lock(m, 0, 1);
    // Node 7 takes the lock first and holds it while everyone else
    // queues in a staggered, known order; grants must replay that order.
    std::vector<NodeId> expected = {7, 1, 2, 3, 4, 5, 6};
    const Addr ready = m.addressMap().addrOnNode(3, slot::locks + 2);
    m.spawnOn(7, [&](ThreadApi &t) -> Task<> {
        co_await lock.acquire(t);
        co_await t.write(ready, 1);
        co_await t.compute(3000); // hold while the queue builds
        co_await lock.release(t);
    });
    for (NodeId p = 1; p <= 6; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            while ((co_await t.read(ready)) == 0)
                co_await t.compute(10);
            co_await t.compute(p * 100); // staggered arrival
            co_await lock.acquire(t);
            co_await lock.release(t);
        });
    }
    m.spawnOn(0, [](ThreadApi &t) -> Task<> { co_await t.compute(1); });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(lock.grantOrder(), expected);
    EXPECT_GE(lock.maxQueueDepth(), 5u);
}

TEST(FifoLock, WaitTimesAreBoundedAndFair)
{
    Machine m(machineFor(protocols::fullMap()));
    FifoLockService lock(m, 4, 2);
    const Addr counter = m.addressMap().addrOnNode(2, slot::locks + 4);
    unsigned violations = 0;
    runLockWorkload(m, lock, 8, violations, counter);

    const auto &waits = lock.grantWaits();
    ASSERT_EQ(waits.size(), 8u * 8u);
    // FIFO service: no request waits more than ~(queue length) critical
    // sections; starvation would show up as an outlier.
    const Tick max_wait = *std::max_element(waits.begin(), waits.end());
    Tick sum = 0;
    for (Tick w : waits)
        sum += w;
    const double mean = static_cast<double>(sum) / waits.size();
    EXPECT_LT(max_wait, mean * 6.0) << "an outlier wait means unfairness";
}

TEST(FifoLock, TwoIndependentLocksDoNotInterfere)
{
    Machine m(machineFor(protocols::fullMap()));
    FifoLockService lock_a(m, 0, 10);
    FifoLockService lock_b(m, 1, 11);
    const Addr ca = m.addressMap().addrOnNode(2, slot::locks + 6);
    const Addr cb = m.addressMap().addrOnNode(3, slot::locks + 8);
    for (NodeId p = 0; p < 8; ++p) {
        FifoLockService &lock = (p % 2) ? lock_a : lock_b;
        const Addr c = (p % 2) ? ca : cb;
        m.spawnOn(p, [&, c](ThreadApi &t) -> Task<> {
            for (int i = 0; i < 6; ++i) {
                co_await lock.acquire(t);
                const std::uint64_t v = co_await t.read(c);
                co_await t.write(c, v + 1);
                co_await lock.release(t);
            }
        });
    }
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(finalWord(m, ca), 4u * 6u);
    EXPECT_EQ(finalWord(m, cb), 4u * 6u);
}

} // namespace
} // namespace limitless
