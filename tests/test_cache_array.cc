/** @file Unit tests for the direct-mapped cache array. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"

namespace limitless
{
namespace
{

TEST(CacheArray, GeometryFromSize)
{
    AddressMap amap(16, 16);
    CacheArray cache(64 * 1024, amap);
    EXPECT_EQ(cache.numSets(), 4096u);
}

TEST(CacheArray, LookupMissesOnEmptyCache)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    EXPECT_EQ(cache.lookup(0x40), nullptr);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(CacheArray, InstallThenLookup)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {0xAA, 0xBB};
    cache.install(0x40, CacheState::readOnly, words, 2);
    CacheLine *cl = cache.lookup(0x40);
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->state, CacheState::readOnly);
    EXPECT_EQ(cache.words(*cl)[0], 0xAAu);
    EXPECT_EQ(cache.words(*cl)[1], 0xBBu);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(CacheArray, DirectMappedConflictEvicts)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap); // 64 sets
    const std::uint64_t words[2] = {1, 2};
    const Addr a = 0x40;
    const Addr b = a + 64 * 16; // same set, different tag
    ASSERT_EQ(cache.indexOf(a), cache.indexOf(b));
    cache.install(a, CacheState::readOnly, words, 2);
    cache.install(b, CacheState::readWrite, words, 2);
    EXPECT_EQ(cache.lookup(a), nullptr);
    ASSERT_NE(cache.lookup(b), nullptr);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(CacheArray, DistinctSetsCoexist)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {1, 2};
    for (Addr a = 0; a < 64 * 16; a += 16)
        cache.install(a, CacheState::readOnly, words, 2);
    EXPECT_EQ(cache.validLines(), 64u);
}

TEST(CacheArray, ForEachValidVisitsExactlyValidLines)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {1, 2};
    cache.install(0x40, CacheState::readOnly, words, 2);
    cache.install(0x80, CacheState::readWrite, words, 2);
    unsigned count = 0;
    cache.forEachValid([&](const CacheLine &cl) {
        ++count;
        EXPECT_TRUE(cl.valid());
    });
    EXPECT_EQ(count, 2u);
}

TEST(CacheArray, DefaultLineCostsAtMost40BytesPerSet)
{
    // A set is its CacheLine plus its words in the flat data array.
    AddressMap amap(16, 16);
    CacheArray cache(64 * 1024, amap);
    const auto words = cache.words(cache.setFor(0));
    EXPECT_EQ(words.size(), 2u);
    EXPECT_LE(sizeof(CacheLine) + words.size_bytes(), 40u);
}

/** Line sizes above the default 16 bytes, up to the largest the address
 *  map accepts (AddressMap::maxWordsPerLine words). */
class CacheArrayLineSize : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheArrayLineSize, WordsRoundTripWithoutAliasingNeighbours)
{
    const unsigned line_bytes = GetParam();
    AddressMap amap(16, line_bytes);
    CacheArray cache(1024, amap);
    const unsigned wpl = amap.wordsPerLine();
    auto pattern = [](std::size_t set, unsigned w) {
        return set * 1000 + w + 1;
    };
    for (std::size_t s = 0; s < cache.numSets(); ++s) {
        std::vector<std::uint64_t> data(wpl);
        for (unsigned w = 0; w < wpl; ++w)
            data[w] = pattern(s, w);
        cache.install(s * line_bytes, CacheState::readOnly, data.data(),
                      wpl);
    }
    // Overwrite one set's words in place; its neighbours keep theirs.
    const std::size_t poked = cache.numSets() / 2;
    CacheLine *victim = cache.lookup(poked * line_bytes);
    ASSERT_NE(victim, nullptr);
    for (std::uint64_t &word : cache.words(*victim))
        word = ~word;
    for (std::size_t s = 0; s < cache.numSets(); ++s) {
        const CacheLine *cl = cache.lookup(s * line_bytes);
        ASSERT_NE(cl, nullptr) << "set " << s;
        const auto words = cache.words(*cl);
        ASSERT_EQ(words.size(), wpl);
        for (unsigned w = 0; w < wpl; ++w) {
            const std::uint64_t want =
                s == poked ? ~pattern(s, w) : pattern(s, w);
            EXPECT_EQ(words[w], want) << "set " << s << " word " << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LineBytes, CacheArrayLineSize,
                         ::testing::Values(32u, 64u));

TEST(CacheArray, StateNamesForDebugging)
{
    EXPECT_STREQ(cacheStateName(CacheState::invalid), "Invalid");
    EXPECT_STREQ(cacheStateName(CacheState::readOnly), "Read-Only");
    EXPECT_STREQ(cacheStateName(CacheState::readWrite), "Read-Write");
}

} // namespace
} // namespace limitless
