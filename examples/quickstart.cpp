/**
 * @file
 * Quickstart: build a 16-node LimitLESS machine, run a small parallel
 * program written as coroutines, and read the results and statistics.
 *
 * This walks through the whole public API surface:
 *   MachineConfig -> Machine -> spawnOn(thread programs) -> run() ->
 *   stats / verification.
 */

#include <iostream>

#include "machine/coherence_monitor.hh"
#include "machine/machine.hh"
#include "workload/barrier.hh"

using namespace limitless;

int
main()
{
    // 1. Describe the machine: 16 Alewife-like nodes on a 4x4 wormhole
    //    mesh, running the LimitLESS protocol with 4 hardware pointers
    //    and a 50-cycle software emulation latency.
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol.kind = ProtocolKind::limitless;
    cfg.protocol.pointers = 4;
    cfg.protocol.softwareLatency = 50;
    cfg.seed = 42;

    Machine m(cfg);
    const AddressMap &amap = m.addressMap();

    // 2. Lay out shared data. addrOnNode(home, slot) places a line on a
    //    specific home node; here one widely shared configuration word
    //    on node 0 and one result counter on node 1.
    const Addr config_word = amap.addrOnNode(0, 0);
    const Addr result_sum = amap.addrOnNode(1, 1);

    // 3. Write the parallel program as coroutines over ThreadApi and
    //    bind one to each node. Shared-memory synchronization (the
    //    combining-tree barrier) runs on the simulated protocol too.
    CombiningTreeBarrier barrier(amap, cfg.numNodes);
    for (NodeId p = 0; p < cfg.numNodes; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            if (p == 0)
                co_await t.write(config_word, 100);
            co_await barrier.wait(t, p);

            // Every node reads the shared word — its worker-set (16)
            // overflows the 4 hardware pointers, so the home node traps
            // into the LimitLESS software handler.
            const std::uint64_t scale = co_await t.read(config_word);

            // ...does some "work"...
            co_await t.compute(25);

            // ...and contributes to a shared sum with an atomic op.
            co_await t.fetchAdd(result_sum, scale + p);
        });
    }

    // 4. Run to completion and check coherence invariants.
    const RunResult r = m.run();
    CoherenceMonitor(m).checkQuiescent();

    // 5. Read results back out of the simulated memory system.
    const Addr line = amap.lineAddr(result_sum);
    std::uint64_t sum = m.node(1).mem().readLine(line)[amap.wordOf(
        result_sum)];
    for (NodeId p = 0; p < cfg.numNodes; ++p) {
        const CacheArray &arr = m.node(p).cache().array();
        const CacheLine *cl = arr.lookup(line);
        if (cl && cl->state == CacheState::readWrite)
            sum = arr.words(*cl)[amap.wordOf(result_sum)];
    }

    std::cout << "ran " << cfg.numNodes << " threads in " << r.cycles
              << " cycles (" << r.events << " events)\n";
    std::cout << "shared sum = " << sum << " (expected "
              << 16 * 100 + (15 * 16) / 2 << ")\n";
    std::cout << "LimitLESS overflow traps taken: "
              << m.sumCounter("mem", "read_traps") << " read, "
              << m.sumCounter("mem", "write_traps") << " write\n";
    std::cout << "mean remote miss latency: "
              << m.meanAccumulator("cache", "remote_latency")
              << " cycles\n";
    return sum == 16 * 100 + (15 * 16) / 2 ? 0 : 1;
}
