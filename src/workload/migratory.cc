#include "workload/migratory.hh"

#include "sim/log.hh"

namespace limitless
{

void
Migratory::install(Machine &m)
{
    const unsigned procs = m.numNodes();
    _errors.assign(procs, 0);
    for (unsigned p = 0; p < procs; ++p) {
        m.spawnOn(p, [this, &m, p](ThreadApi &t) {
            return worker(t, m, p);
        });
    }
}

Task<>
Migratory::worker(ThreadApi &t, Machine &m, unsigned p)
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();
    const unsigned next = (p + 1) % procs;

    // The token takes the value `round` when handed to proc 0, and the
    // same value as it passes down the ring. Proc 0 starts round 1.
    for (unsigned round = 1; round <= _p.rounds; ++round) {
        if (p == 0 && round == 1) {
            // Seed the very first token.
        } else {
            // Wait for the token.
            for (;;) {
                const std::uint64_t v =
                    co_await t.read(tokenAddr(amap, p));
                if (v >= round)
                    break;
                co_await t.compute(_p.pollDelay);
            }
        }

        // Hold the object: fetch-add every line.
        for (unsigned k = 0; k < _p.objectLines; ++k) {
            co_await t.fetchAdd(objectAddr(amap, k), 1);
            co_await t.compute(_p.computePerLine);
        }

        // Pass the token along. The wrap back to proc 0 starts the next
        // round.
        const unsigned nr = next == 0 ? round + 1 : round;
        if (!(next == 0 && round == _p.rounds))
            co_await t.write(tokenAddr(amap, next), nr);
    }
}

void
Migratory::verify(Machine &m) const
{
    const AddressMap &amap = m.addressMap();
    const unsigned procs = m.numNodes();
    for (unsigned k = 0; k < _p.objectLines; ++k) {
        const Addr a = objectAddr(amap, k);
        const Addr line = amap.lineAddr(a);
        // The final value may still be dirty in some cache.
        std::uint64_t v = 0;
        bool found = false;
        for (unsigned p = 0; p < procs && !found; ++p) {
            const CacheArray &arr = m.node(p).cache().array();
            const CacheLine *cl = arr.lookup(line);
            if (cl && cl->state == CacheState::readWrite) {
                v = arr.words(*cl)[amap.wordOf(a)];
                found = true;
            }
        }
        if (!found)
            v = m.node(amap.homeOf(a)).mem().readLine(line)[amap.wordOf(a)];
        const std::uint64_t expected =
            static_cast<std::uint64_t>(procs) * _p.rounds;
        if (v != expected)
            panic("migratory: object line %u ended at %llu, expected %llu",
                  k, (unsigned long long)v, (unsigned long long)expected);
    }
}

} // namespace limitless
