#include "workload/transpose.hh"

#include "sim/log.hh"

namespace limitless
{

void
Transpose::install(Machine &m)
{
    const unsigned procs = m.numNodes();
    _barrier = std::make_unique<CombiningTreeBarrier>(
        m.addressMap(), procs, _p.barrierFanIn, slot::barrier);
    _errors.assign(procs, 0);
    for (unsigned p = 0; p < procs; ++p) {
        m.spawnOn(p, [this, &m, p](ThreadApi &t) {
            return worker(t, m, p);
        });
    }
}

Task<>
Transpose::worker(ThreadApi &t, Machine &m, unsigned p)
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();

    for (unsigned round = 1; round <= _p.rounds; ++round) {
        // Phase 1: publish this row's tiles.
        for (unsigned j = 0; j < procs; ++j)
            for (unsigned w = 0; w < _p.wordsPerTile; ++w)
                co_await t.write(tileAddr(amap, p, j, w),
                                 value(p, j, w, round));
        co_await _barrier->wait(t, p);

        // Phase 2: gather column p from every row (all-to-all), starting
        // from a different row per processor so the traffic spreads.
        for (unsigned k = 0; k < procs; ++k) {
            const unsigned i = (p + k) % procs;
            for (unsigned w = 0; w < _p.wordsPerTile; ++w) {
                const std::uint64_t v =
                    co_await t.read(tileAddr(amap, i, p, w));
                if (v != value(i, p, w, round))
                    ++_errors[p];
                co_await t.write(outAddr(amap, p, i, w), v);
            }
            co_await t.compute(_p.computePerTile);
        }
        co_await _barrier->wait(t, p);
    }
}

void
Transpose::verify(Machine &m) const
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();
    for (unsigned p = 0; p < procs; ++p) {
        if (_errors[p])
            panic("transpose: proc %u observed %llu stale tiles", p,
                  (unsigned long long)_errors[p]);
    }
    // Spot-check the transposed matrix: out(j, i) == value(i, j).
    for (unsigned j = 0; j < procs; j += 3) {
        for (unsigned i = 0; i < procs; i += 5) {
            const Addr a = outAddr(amap, j, i, 0);
            const Addr line = amap.lineAddr(a);
            std::uint64_t v = 0;
            bool found = false;
            for (unsigned q = 0; q < procs && !found; ++q) {
                const CacheArray &arr = m.node(q).cache().array();
                const CacheLine *cl = arr.lookup(line);
                if (cl && cl->state == CacheState::readWrite) {
                    v = arr.words(*cl)[amap.wordOf(a)];
                    found = true;
                }
            }
            if (!found)
                v = m.node(amap.homeOf(a))
                        .mem()
                        .readLine(line)[amap.wordOf(a)];
            if (v != value(i, j, 0, _p.rounds))
                panic("transpose: out(%u,%u) is %llu, expected %llu", j,
                      i, (unsigned long long)v,
                      (unsigned long long)value(i, j, 0, _p.rounds));
        }
    }
}

} // namespace limitless
