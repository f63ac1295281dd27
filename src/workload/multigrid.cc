#include "workload/multigrid.hh"

#include "sim/log.hh"

namespace limitless
{

namespace
{

/** Mesh direction encoding: 0=N 1=E 2=S 3=W. */
constexpr unsigned numDirs = 4;

/** Opposite direction (my north boundary is my north neighbour's south). */
unsigned
opposite(unsigned d)
{
    return (d + 2) % numDirs;
}

int
neighborOf(const MachineConfig &cfg, unsigned p, unsigned d)
{
    const unsigned w = cfg.resolvedMeshWidth();
    const unsigned h = cfg.resolvedMeshHeight();
    const unsigned x = p % w;
    const unsigned y = p / w;
    switch (d) {
      case 0: return y == 0 ? -1 : static_cast<int>(p - w);
      case 1: return x + 1 >= w ? -1 : static_cast<int>(p + 1);
      case 2: return y + 1 >= h ? -1 : static_cast<int>(p + w);
      case 3: return x == 0 ? -1 : static_cast<int>(p - 1);
      default: return -1;
    }
}

} // namespace

Addr
Multigrid::boundaryAddr(const AddressMap &amap, unsigned p, unsigned d,
                        unsigned j) const
{
    return amap.addrOnNode(static_cast<NodeId>(p),
                           slot::data + d * _p.boundaryWords + j);
}

Addr
Multigrid::interiorAddr(const AddressMap &amap, unsigned p,
                        unsigned k) const
{
    return amap.addrOnNode(static_cast<NodeId>(p),
                           slot::data + numDirs * _p.boundaryWords + k);
}

void
Multigrid::install(Machine &m)
{
    const unsigned procs = m.numNodes();
    _barrier = std::make_unique<CombiningTreeBarrier>(
        m.addressMap(), procs, _p.barrierFanIn, slot::barrier);
    _errors.assign(procs, 0);
    _reads.assign(procs, 0);
    for (unsigned p = 0; p < procs; ++p) {
        m.spawnOn(p, [this, &m, p](ThreadApi &t) {
            return worker(t, m, p);
        });
    }
}

Task<>
Multigrid::worker(ThreadApi &t, Machine &m, unsigned p)
{
    const AddressMap &amap = m.addressMap();
    const MachineConfig &cfg = m.config();

    for (unsigned iter = 1; iter <= _p.iterations; ++iter) {
        // Publish this iteration's boundary values.
        for (unsigned d = 0; d < numDirs; ++d) {
            if (neighborOf(cfg, p, d) < 0)
                continue;
            for (unsigned j = 0; j < _p.boundaryWords; ++j) {
                co_await t.write(boundaryAddr(amap, p, d, j),
                                 expectedValue(p, iter, d, j));
            }
        }
        co_await _barrier->wait(t, p);

        // Read each neighbour's facing boundary and relax the interior.
        for (unsigned d = 0; d < numDirs; ++d) {
            const int q = neighborOf(cfg, p, d);
            if (q < 0)
                continue;
            const unsigned facing = opposite(d);
            for (unsigned j = 0; j < _p.boundaryWords; ++j) {
                const std::uint64_t v = co_await t.read(
                    boundaryAddr(amap, q, facing, j));
                ++_reads[p];
                if (v != expectedValue(q, iter, facing, j))
                    ++_errors[p];
                co_await t.compute(_p.computePerPoint);
            }
        }
        for (unsigned k = 0; k < _p.interiorLines; ++k) {
            const Addr a = interiorAddr(amap, p, k);
            const std::uint64_t v = co_await t.read(a);
            co_await t.compute(_p.computePerPoint);
            co_await t.write(a, v + 1);
        }
        co_await _barrier->wait(t, p);
    }
}

void
Multigrid::verify(Machine &m) const
{
    for (unsigned p = 0; p < m.numNodes(); ++p) {
        if (_errors[p])
            panic("multigrid: proc %u observed %llu stale boundary reads",
                  p, (unsigned long long)_errors[p]);
        if (_barrier->episodes(p) != 2 * _p.iterations)
            panic("multigrid: proc %u completed %llu barrier episodes, "
                  "expected %u",
                  p, (unsigned long long)_barrier->episodes(p),
                  2 * _p.iterations);
    }
    // Interior relaxation ran to completion: each interior word counted
    // every iteration.
    Machine &mm = m;
    for (unsigned p = 0; p < m.numNodes(); ++p) {
        for (unsigned k = 0; k < _p.interiorLines; ++k) {
            const Addr a = interiorAddr(m.addressMap(), p, k);
            const NodeId home = m.addressMap().homeOf(a);
            // The final value may still live dirty in p's cache.
            const CacheArray &arr = mm.node(p).cache().array();
            const CacheLine *cl = arr.lookup(m.addressMap().lineAddr(a));
            std::uint64_t v;
            if (cl && cl->state == CacheState::readWrite)
                v = arr.words(*cl)[m.addressMap().wordOf(a)];
            else
                v = mm.node(home).mem().readLine(
                    m.addressMap().lineAddr(a))[m.addressMap().wordOf(a)];
            if (v != _p.iterations)
                panic("multigrid: interior word (%u,%u) is %llu, expected "
                      "%u", p, k, (unsigned long long)v, _p.iterations);
        }
    }
}

} // namespace limitless
