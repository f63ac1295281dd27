/**
 * @file
 * Weak-ordering tests: store buffering, same-thread forwarding, fence
 * semantics, atomic drain (release consistency), and full workloads
 * verifying under the weak model on every protocol — the paper's claim
 * that "the LimitLESS directory scheme can also be used with a
 * weakly-ordered memory model".
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "workload/multigrid.hh"
#include "workload/random_stress.hh"
#include "workload/weather.hh"

namespace limitless
{
namespace
{

MachineConfig
weakMachine(ProtocolParams proto, unsigned nodes = 16)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = proto;
    cfg.proc.memoryModel = MemoryModel::weak;
    cfg.seed = 97;
    return cfg;
}

TEST(WeakOrdering, BufferedStoreDoesNotBlockTheThread)
{
    Machine m(weakMachine(protocols::fullMap(), 4));
    const Addr remote = m.addressMap().addrOnNode(3, 0);
    Tick store_time = 0;
    m.spawnOn(0, [&, remote](ThreadApi &t) -> Task<> {
        const Tick start = t.now();
        co_await t.write(remote, 7); // remote store: buffered
        store_time = t.now() - start;
        co_await t.fence(); // make it globally visible before exit
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_LE(store_time, 2u) << "store must retire into the buffer";
    // After the fence + drain the value is in the coherent system.
    EXPECT_EQ(m.node(3).mem().readLine(
                  m.addressMap().lineAddr(remote))[0], 0u)
        << "line should be held dirty by node 0's cache";
    const CacheArray &arr = m.node(0).cache().array();
    const CacheLine *cl = arr.lookup(m.addressMap().lineAddr(remote));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(arr.words(*cl)[0], 7u);
}

TEST(WeakOrdering, LoadForwardsFromTheStoreBuffer)
{
    Machine m(weakMachine(protocols::fullMap(), 4));
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        co_await t.write(a, 41);
        // Immediately readable through forwarding, long before the
        // store is globally performed.
        const Tick start = t.now();
        const std::uint64_t v = co_await t.read(a);
        EXPECT_EQ(v, 41u);
        EXPECT_LE(t.now() - start, 2u);
        co_await t.fence();
    });
    EXPECT_TRUE(m.run().completed);
    const auto *fw = static_cast<const Counter *>(
        m.node(0).statSet("proc")->find("store_forwards"));
    EXPECT_GE(fw->value(), 1u);
}

TEST(WeakOrdering, FenceWaitsForEveryBufferedStore)
{
    Machine m(weakMachine(protocols::fullMap(), 4));
    const AddressMap &amap = m.addressMap();
    Tick fence_time = 0;
    m.spawnOn(0, [&](ThreadApi &t) -> Task<> {
        for (unsigned i = 0; i < 4; ++i)
            co_await t.write(amap.addrOnNode(3, i), i + 1);
        const Tick start = t.now();
        co_await t.fence();
        fence_time = t.now() - start;
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_GT(fence_time, 10u) << "fence must wait out the drain";
    for (unsigned i = 0; i < 4; ++i) {
        const Addr line = amap.lineAddr(amap.addrOnNode(3, i));
        const CacheArray &arr = m.node(0).cache().array();
        const CacheLine *cl = arr.lookup(line);
        ASSERT_NE(cl, nullptr);
        EXPECT_EQ(arr.words(*cl)[0], i + 1);
    }
}

TEST(WeakOrdering, FenceIsFreeUnderSequentialConsistency)
{
    MachineConfig cfg = weakMachine(protocols::fullMap(), 4);
    cfg.proc.memoryModel = MemoryModel::sequential;
    Machine m(cfg);
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        const Tick start = t.now();
        co_await t.fence();
        EXPECT_EQ(t.now(), start);
    });
    EXPECT_TRUE(m.run().completed);
}

TEST(WeakOrdering, AtomicsDrainTheBufferFirst)
{
    // Release consistency: a fetch-add issued after buffered stores must
    // not be observed before them.
    Machine m(weakMachine(protocols::fullMap(), 4));
    const Addr data = m.addressMap().addrOnNode(2, 0);
    const Addr flag = m.addressMap().addrOnNode(3, 1);
    unsigned violations = 0;
    m.spawnOn(0, [&, data, flag](ThreadApi &t) -> Task<> {
        co_await t.write(data, 123);    // buffered
        co_await t.fetchAdd(flag, 1);   // drains, then publishes
    });
    m.spawnOn(1, [&, data, flag](ThreadApi &t) -> Task<> {
        while ((co_await t.read(flag)) == 0)
            co_await t.compute(6);
        if ((co_await t.read(data)) != 123)
            ++violations;
    });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(violations, 0u);
}

TEST(WeakOrdering, StoreBufferBackpressureStallsWhenFull)
{
    MachineConfig cfg = weakMachine(protocols::fullMap(), 4);
    cfg.proc.storeBufferDepth = 2;
    Machine m(cfg);
    const AddressMap &amap = m.addressMap();
    m.spawnOn(0, [&](ThreadApi &t) -> Task<> {
        // 10 remote stores through a 2-deep buffer: the thread must
        // stall sometimes, but everything still lands.
        for (unsigned i = 0; i < 10; ++i)
            co_await t.write(amap.addrOnNode(3, i), 100 + i);
        co_await t.fence();
    });
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    for (unsigned i = 0; i < 10; ++i) {
        const Addr line = amap.lineAddr(amap.addrOnNode(3, i));
        const CacheArray &arr = m.node(0).cache().array();
        const CacheLine *cl = arr.lookup(line);
        if (cl && cl->state == CacheState::readWrite) {
            EXPECT_EQ(arr.words(*cl)[0], 100 + i);
        } else {
            EXPECT_EQ(m.node(3).mem().readLine(line)[0], 100 + i);
        }
    }
}

TEST(WeakOrdering, WorkloadsVerifyUnderWeakOrderingOnEveryProtocol)
{
    for (const auto &proto :
         {protocols::fullMap(), protocols::dirNB(2),
          protocols::limitlessStall(4, 50),
          protocols::limitlessEmulated(4), protocols::chained()}) {
        {
            MultigridParams wp;
            wp.iterations = 3;
            wp.interiorLines = 6;
            Machine m(weakMachine(proto));
            Multigrid wl(wp);
            wl.install(m);
            ASSERT_TRUE(m.run().completed) << proto.name();
            wl.verify(m);
            CoherenceMonitor(m).checkQuiescent();
        }
        {
            RandomStressParams rp;
            rp.opsPerProc = 60;
            Machine m(weakMachine(proto));
            RandomStress wl(rp);
            wl.install(m);
            ASSERT_TRUE(m.run().completed) << proto.name();
            wl.verify(m);
        }
    }
}

TEST(WeakOrdering, HidesWriteLatency)
{
    // A write-heavy kernel (scatter to remote homes) should speed up
    // under weak ordering: the thread no longer blocks per store.
    auto run = [&](MemoryModel model) {
        MachineConfig cfg = weakMachine(protocols::fullMap(), 16);
        cfg.proc.memoryModel = model;
        Machine m(cfg);
        for (NodeId p = 0; p < 16; ++p) {
            m.spawnOn(p, [&m, p](ThreadApi &t) -> Task<> {
                const AddressMap &amap = m.addressMap();
                for (unsigned i = 0; i < 30; ++i) {
                    co_await t.write(
                        amap.addrOnNode((p + 1 + i) % 16, p * 64 + i),
                        i);
                    co_await t.compute(4);
                }
                co_await t.fence();
            });
        }
        const RunResult r = m.run();
        EXPECT_TRUE(r.completed);
        return r.cycles;
    };
    const Tick sc = run(MemoryModel::sequential);
    const Tick weak = run(MemoryModel::weak);
    EXPECT_LT(weak, sc * 3 / 4) << "weak ordering should hide >25% here";
}

} // namespace
} // namespace limitless
