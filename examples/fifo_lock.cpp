/**
 * @file
 * FIFO lock demo (paper Section 6): the LimitLESS trap machinery's
 * generic interface lets the runtime synthesize synchronization types in
 * software. Here a FIFO lock service running on the lock's home node
 * queues acquire requests and grants them first-come-first-served over
 * IPI messages, side by side with a conventional test-and-set spin lock
 * on coherent shared memory.
 *
 * The demo runs the same contended critical-section workload under both
 * and prints throughput and fairness (grant-wait spread): the spin lock
 * is unfair and hammers its home node with coherence traffic; the FIFO
 * lock is perfectly ordered with two messages per hand-off.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "harness/experiment.hh"
#include "kernel/fifo_lock.hh"
#include "workload/spin_lock.hh"
#include "workload/workload.hh"

using namespace limitless;

namespace
{

struct Outcome
{
    Tick cycles;
    double mean_wait;
    Tick max_wait;
    std::uint64_t final_count;
};

constexpr unsigned nodes = 16;
constexpr unsigned iters = 12;

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

Outcome
runFifo()
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.seed = 23;
    Machine m(cfg);
    FifoLockService lock(m, 0, 1);
    const Addr counter = m.addressMap().addrOnNode(1, slot::locks + 2);
    for (NodeId p = 0; p < nodes; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            for (unsigned i = 0; i < iters; ++i) {
                co_await lock.acquire(t);
                const std::uint64_t v = co_await t.read(counter);
                co_await t.compute(10);
                co_await t.write(counter, v + 1);
                co_await lock.release(t);
                co_await t.compute(1 + (p * 7) % 23);
            }
        });
    }
    const RunResult r = m.run();
    const auto &waits = lock.grantWaits();
    Tick sum = 0, mx = 0;
    for (Tick w : waits) {
        sum += w;
        mx = std::max(mx, w);
    }
    return Outcome{r.cycles, double(sum) / waits.size(), mx,
                   finalWord(m, counter)};
}

Outcome
runSpin()
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.seed = 23;
    Machine m(cfg);
    SpinLock lock(m.addressMap().addrOnNode(0, slot::locks));
    const Addr counter = m.addressMap().addrOnNode(1, slot::locks + 2);
    std::vector<Tick> waits;
    for (NodeId p = 0; p < nodes; ++p) {
        m.spawnOn(p, [&, p](ThreadApi &t) -> Task<> {
            for (unsigned i = 0; i < iters; ++i) {
                const Tick before = t.now();
                co_await lock.acquire(t);
                waits.push_back(t.now() - before);
                const std::uint64_t v = co_await t.read(counter);
                co_await t.compute(10);
                co_await t.write(counter, v + 1);
                co_await lock.release(t);
                co_await t.compute(1 + (p * 7) % 23);
            }
        });
    }
    const RunResult r = m.run();
    Tick sum = 0, mx = 0;
    for (Tick w : waits) {
        sum += w;
        mx = std::max(mx, w);
    }
    return Outcome{r.cycles, double(sum) / waits.size(), mx,
                   finalWord(m, counter)};
}

} // namespace

int
main()
{
    std::cout << nodes << " nodes, " << iters
              << " critical sections each, LimitLESS4 machine:\n\n";
    const Outcome spin = runSpin();
    const Outcome fifo = runFifo();

    std::cout << std::left << std::setw(18) << "  lock"
              << std::right << std::setw(10) << "cycles" << std::setw(12)
              << "mean wait" << std::setw(12) << "max wait"
              << std::setw(9) << "count" << "\n";
    std::cout << std::left << std::setw(18) << "  test-and-set"
              << std::right << std::setw(10) << spin.cycles
              << std::setw(12) << std::fixed << std::setprecision(1)
              << spin.mean_wait << std::setw(12) << spin.max_wait
              << std::setw(9) << spin.final_count << "\n";
    std::cout << std::left << std::setw(18) << "  FIFO (IPI)"
              << std::right << std::setw(10) << fifo.cycles
              << std::setw(12) << fifo.mean_wait << std::setw(12)
              << fifo.max_wait << std::setw(9) << fifo.final_count
              << "\n";

    std::cout << "\nfairness (max/mean wait): test-and-set "
              << std::setprecision(1) << spin.max_wait / spin.mean_wait
              << "x vs FIFO " << fifo.max_wait / fifo.mean_wait << "x\n";

    const bool ok = spin.final_count == nodes * iters &&
                    fifo.final_count == nodes * iters;
    std::cout << (ok ? "\nboth locks preserved mutual exclusion (exact "
                       "counts).\n"
                     : "\nCOUNT MISMATCH!\n");
    return ok ? 0 : 1;
}
