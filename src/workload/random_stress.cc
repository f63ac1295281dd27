#include "workload/random_stress.hh"

#include "hier/chip_home.hh"
#include "sim/log.hh"

namespace limitless
{

void
RandomStress::install(Machine &m)
{
    const unsigned procs = m.numNodes();
    _tallies = std::vector<std::atomic<std::uint64_t>>(_p.counterLines);
    _errors.assign(procs, 0);
    for (unsigned p = 0; p < procs; ++p) {
        m.spawnOn(p, [this, &m, p](ThreadApi &t) {
            return worker(t, m, p);
        });
    }
}

Task<>
RandomStress::worker(ThreadApi &t, Machine &m, unsigned p)
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();
    Rng rng(_p.seed ^ (0x5eedull * (p + 1)));

    unsigned seq = 0;
    for (unsigned i = 0; i < _p.opsPerProc; ++i) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 40) {
            const unsigned k =
                static_cast<unsigned>(rng.below(_p.counterLines));
            const std::uint64_t delta = 1 + rng.below(3);
            co_await t.fetchAdd(counterAddr(amap, k, procs), delta);
            _tallies[k].fetch_add(delta, std::memory_order_relaxed);
        } else if (dice < 70) {
            const unsigned k =
                static_cast<unsigned>(rng.below(_p.valueLines));
            co_await t.write(valueAddr(amap, k, procs), tag(p, ++seq));
        } else {
            const unsigned k =
                static_cast<unsigned>(rng.below(_p.valueLines));
            const std::uint64_t v =
                co_await t.read(valueAddr(amap, k, procs));
            if (!validTag(v, procs, _p.opsPerProc))
                ++_errors[p];
        }
        if (_p.maxCompute)
            co_await t.compute(rng.below(_p.maxCompute + 1));
    }
}

void
RandomStress::verify(Machine &m) const
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();
    for (unsigned p = 0; p < procs; ++p) {
        if (_errors[p])
            panic("random-stress: proc %u observed %llu malformed values",
                  p, (unsigned long long)_errors[p]);
    }
    for (unsigned k = 0; k < _p.counterLines; ++k) {
        const Addr a = counterAddr(amap, k, procs);
        const Addr line = amap.lineAddr(a);
        std::uint64_t v = 0;
        bool dirty = false;
        for (unsigned p = 0; p < procs && !dirty; ++p) {
            const CacheArray &arr = m.node(p).cache().array();
            const CacheLine *cl = arr.lookup(line);
            if (cl && cl->state == CacheState::readWrite) {
                v = arr.words(*cl)[amap.wordOf(a)];
                dirty = true;
            }
        }
        // Two-level machines: a chip home may hold the line dirty (it is
        // the exclusive owner at the global level) with only clean local
        // readers — the freshest value then lives in the chip's copy, not
        // in memory.
        for (unsigned p = 0; p < procs && !dirty; ++p) {
            const ChipHomeController *chip = m.node(p).chipHome();
            if (!chip || !chip->lineDirty(line))
                continue;
            v = (*chip->lineData(line))[amap.wordOf(a)];
            dirty = true;
        }
        if (!dirty)
            v = m.node(amap.homeOf(a)).mem().readLine(line)[amap.wordOf(a)];
        const std::uint64_t want =
            _tallies[k].load(std::memory_order_relaxed);
        if (v != want)
            panic("random-stress: counter %u ended at %llu, expected %llu",
                  k, (unsigned long long)v, (unsigned long long)want);
    }
}

} // namespace limitless
