/**
 * @file
 * Direct-mapped cache storage (64K bytes of 16-byte lines per Alewife
 * node). Stores real data words so end-to-end value correctness is
 * checkable, not just timing.
 *
 * Tags and states sit in one array of 16-byte CacheLines; the data sit
 * in a second, flat array holding exactly AddressMap::wordsPerLine()
 * words per set, reached through CacheArray::words(). A set therefore
 * costs 16 bytes plus its line (32 bytes at the default 16-byte line),
 * not the largest line any configuration could choose.
 */

#ifndef LIMITLESS_CACHE_CACHE_ARRAY_HH
#define LIMITLESS_CACHE_CACHE_ARRAY_HH

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "machine/address_map.hh"
#include "proto/states.hh"
#include "sim/types.hh"

namespace limitless
{

/** One cache set's tag and state; its data words live in the owning
 *  CacheArray (CacheArray::words). */
struct CacheLine
{
    Addr tag = 0; ///< line-aligned address
    CacheState state = CacheState::invalid;
    /** Chain pointer for the chained-directory protocol. */
    NodeId chainNext = invalidNode;

    bool valid() const { return state != CacheState::invalid; }
};

/** Direct-mapped tag + data array. */
class CacheArray
{
  public:
    CacheArray(std::uint64_t cache_bytes, const AddressMap &amap)
        : _amap(amap), _numSets(cache_bytes / amap.lineBytes()),
          _sets(_numSets), _words(_numSets * amap.wordsPerLine())
    {
        assert(_numSets >= 1);
        assert((_numSets & (_numSets - 1)) == 0 &&
               "set count must be a power of two");
    }

    std::size_t numSets() const { return _numSets; }

    std::size_t
    indexOf(Addr line) const
    {
        return (line >> _amap.lineShift()) & (_numSets - 1);
    }

    /** Line currently resident in the set the address maps to. */
    CacheLine &setFor(Addr line) { return _sets[indexOf(line)]; }
    const CacheLine &setFor(Addr line) const { return _sets[indexOf(line)]; }

    /** Data words of @p cl, which must be one of this array's sets. */
    std::span<std::uint64_t>
    words(const CacheLine &cl)
    {
        return {_words.data() + wordOffset(cl), _amap.wordsPerLine()};
    }

    std::span<const std::uint64_t>
    words(const CacheLine &cl) const
    {
        return {_words.data() + wordOffset(cl), _amap.wordsPerLine()};
    }

    /** Matching valid line, or nullptr. */
    CacheLine *
    lookup(Addr line)
    {
        CacheLine &cl = setFor(line);
        return (cl.valid() && cl.tag == line) ? &cl : nullptr;
    }

    const CacheLine *
    lookup(Addr line) const
    {
        const CacheLine &cl = setFor(line);
        return (cl.valid() && cl.tag == line) ? &cl : nullptr;
    }

    /** Overwrite the set with a new resident line. */
    CacheLine &
    install(Addr line, CacheState state,
            const std::uint64_t *data, unsigned words)
    {
        CacheLine &cl = setFor(line);
        cl.tag = line;
        cl.state = state;
        cl.chainNext = invalidNode;
        std::uint64_t *dst = _words.data() + wordOffset(cl);
        for (unsigned i = 0; i < words; ++i)
            dst[i] = data[i];
        return cl;
    }

    /** Number of valid lines (for tests / occupancy stats). */
    std::size_t
    validLines() const
    {
        std::size_t n = 0;
        for (const auto &cl : _sets)
            n += cl.valid();
        return n;
    }

    /** Iterate valid lines (coherence-monitor support). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &cl : _sets)
            if (cl.valid())
                fn(cl);
    }

  private:
    /** Offset of @p cl's first word in the flat data array. */
    std::size_t
    wordOffset(const CacheLine &cl) const
    {
        assert(&cl >= _sets.data() && &cl < _sets.data() + _numSets);
        return static_cast<std::size_t>(&cl - _sets.data()) *
               _amap.wordsPerLine();
    }

    const AddressMap &_amap;
    std::size_t _numSets;
    std::vector<CacheLine> _sets;
    std::vector<std::uint64_t> _words; ///< wordsPerLine() per set
};

} // namespace limitless

#endif // LIMITLESS_CACHE_CACHE_ARRAY_HH
