/**
 * @file
 * Coherence-monitor negative tests: a checker that cannot fail proves
 * nothing, so these corrupt machine state deliberately and assert the
 * monitor catches each class of violation. Plus home-FSM rejection of
 * malformed packets.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"

namespace limitless
{
namespace
{

MachineConfig
tiny()
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.protocol = protocols::fullMap();
    cfg.seed = 3;
    return cfg;
}

/** Run a trivial program so caches hold known lines. */
void
prime(Machine &m, Addr a)
{
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> { co_await t.read(a); });
    m.spawnOn(1, [a](ThreadApi &t) -> Task<> { co_await t.read(a); });
    ASSERT_TRUE(m.run().completed);
}

TEST(CoherenceMonitorNegative, CleanMachinePasses)
{
    Machine m(tiny());
    prime(m, m.addressMap().addrOnNode(2, 0));
    CoherenceMonitor(m).checkQuiescent(); // must not abort
}

TEST(CoherenceMonitorNegative, DetectsTwoWriters)
{
    Machine m(tiny());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    prime(m, a);
    const Addr line = m.addressMap().lineAddr(a);
    // Corrupt: promote both read-only copies to Read-Write.
    m.node(0).cache().array().lookup(line)->state =
        CacheState::readWrite;
    m.node(1).cache().array().lookup(line)->state =
        CacheState::readWrite;
    EXPECT_DEATH(CoherenceMonitor(m).checkGlobalInvariants(),
                 "Read-Write copies");
}

TEST(CoherenceMonitorNegative, DetectsWriterAlongsideReaders)
{
    Machine m(tiny());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    prime(m, a);
    const Addr line = m.addressMap().lineAddr(a);
    m.node(0).cache().array().lookup(line)->state =
        CacheState::readWrite;
    EXPECT_DEATH(CoherenceMonitor(m).checkGlobalInvariants(),
                 "alongside");
}

TEST(CoherenceMonitorNegative, DetectsUntrackedCopy)
{
    Machine m(tiny());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    prime(m, a);
    const Addr line = m.addressMap().lineAddr(a);
    // Corrupt: erase node 1 from the directory while it holds a copy.
    m.node(2).mem().directory().remove(line, 1);
    EXPECT_DEATH(CoherenceMonitor(m).checkQuiescent(),
                 "neither the directory");
}

TEST(CoherenceMonitorNegative, DetectsStaleData)
{
    Machine m(tiny());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    prime(m, a);
    const Addr line = m.addressMap().lineAddr(a);
    // Corrupt: a read-only copy's words diverge from memory.
    CacheArray &arr = m.node(1).cache().array();
    arr.words(*arr.lookup(line))[0] ^= 0xDEAD;
    EXPECT_DEATH(CoherenceMonitor(m).checkQuiescent(), "memory has");
}

TEST(CoherenceMonitorNegative, DetectsStuckTransaction)
{
    Machine m(tiny());
    const Addr a = m.addressMap().addrOnNode(2, 0);
    prime(m, a);
    const Addr line = m.addressMap().lineAddr(a);
    m.node(2).mem().setLineState(line, MemState::writeTransaction);
    EXPECT_DEATH(CoherenceMonitor(m).checkQuiescent(), "stuck");
}

// ----------------------------------------------- malformed-packet guards

TEST(HomeFsmGuards, RejectsRepmFromNonOwner)
{
    EventQueue eq;
    AddressMap amap(4, 16);
    MemoryController mc(eq, 0, amap, protocols::fullMap(), MemParams{});
    mc.setSend([](PacketPtr) {});
    const Addr line = amap.addrOnNode(0, 0);
    mc.enqueue(makeProtocolPacket(1, 0, Opcode::WREQ, line));
    eq.run();
    EXPECT_DEATH(
        {
            mc.enqueue(
                makeDataPacket(2, 0, Opcode::REPM, line, {1, 2}));
            eq.run();
        },
        "REPM from a non-owner");
}

TEST(HomeFsmGuards, RejectsPacketsForForeignLines)
{
    EventQueue eq;
    AddressMap amap(4, 16);
    MemoryController mc(eq, 0, amap, protocols::fullMap(), MemParams{});
    mc.setSend([](PacketPtr) {});
    const Addr foreign = amap.addrOnNode(2, 0);
    EXPECT_DEATH(
        mc.enqueue(makeProtocolPacket(1, 0, Opcode::RREQ, foreign)),
        "wrong home");
}

TEST(HomeFsmGuards, RejectsUpdateInReadOnly)
{
    EventQueue eq;
    AddressMap amap(4, 16);
    MemoryController mc(eq, 0, amap, protocols::fullMap(), MemParams{});
    mc.setSend([](PacketPtr) {});
    const Addr line = amap.addrOnNode(0, 0);
    // The transition engine panics on the undeclared (state, opcode)
    // pair, dumping the postmortem ring on the way out.
    EXPECT_DEATH(
        {
            mc.enqueue(
                makeDataPacket(1, 0, Opcode::UPDATE, line, {1, 2}));
            eq.run();
        },
        "no transition for \\(Read-Only, UPDATE\\)");
}

} // namespace
} // namespace limitless
