/** @file Unit tests for LRU replacement state. The LruSet suites
 *  exercise a single set of an LruTable; LruTable.* covers sets that
 *  share one table. */

#include <gtest/gtest.h>

#include "common/lru.hh"

using namespace vpir;

TEST(LruSet, VictimIsLeastRecentlyTouched)
{
    LruTable l(1, 4);
    l.touch(0, 0);
    l.touch(0, 1);
    l.touch(0, 2);
    l.touch(0, 3);
    EXPECT_EQ(l.victim(0), 0u);
    l.touch(0, 0);
    EXPECT_EQ(l.victim(0), 1u);
}

TEST(LruSet, UntouchedWaysAreVictimsFirst)
{
    LruTable l(1, 4);
    l.touch(0, 2);
    // Ways 0, 1, 3 are untouched; the first one wins ties.
    EXPECT_EQ(l.victim(0), 0u);
}

TEST(LruSet, SingleWay)
{
    LruTable l(1, 1);
    l.touch(0, 0);
    EXPECT_EQ(l.victim(0), 0u);
}

/** Property: after touching every way in order, victims cycle in
 *  the same order as re-touches happen. */
TEST(LruSet, CyclesThroughVictims)
{
    LruTable l(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        l.touch(0, w);
    for (unsigned round = 0; round < 12; ++round) {
        unsigned v = l.victim(0);
        EXPECT_EQ(v, round % 4);
        l.touch(0, v);
    }
}

/** Property: the victim is never a way touched more recently than
 *  some untouched way (reference-model check). */
TEST(LruSet, MatchesReferenceModel)
{
    LruTable l(1, 8);
    std::vector<uint64_t> stamp(8, 0);
    uint64_t t = 0;
    uint64_t s = 99;
    for (int i = 0; i < 2000; ++i) {
        s = s * 6364136223846793005ull + 1;
        unsigned w = static_cast<unsigned>(s >> 61);
        l.touch(0, w);
        stamp[w] = ++t;
        unsigned expect = 0;
        for (unsigned k = 1; k < 8; ++k) {
            if (stamp[k] < stamp[expect])
                expect = k;
        }
        ASSERT_EQ(l.victim(0), expect);
    }
}

/** Sets of one table keep independent recency (and ticks): touching
 *  one set never changes another's victim. */
TEST(LruTable, SetsAreIndependent)
{
    LruTable l(3, 2);
    l.touch(0, 0);
    l.touch(0, 1);
    l.touch(2, 1);
    EXPECT_EQ(l.victim(0), 0u);
    EXPECT_EQ(l.victim(1), 0u);
    EXPECT_EQ(l.victim(2), 0u);
    l.touch(0, 0);
    EXPECT_EQ(l.victim(0), 1u);
    EXPECT_EQ(l.victim(2), 0u);
}

/** serialize() keeps the historical per-set layout (tick, then stamps)
 *  and round-trips through deserialize(). */
TEST(LruTable, SerializeRoundTrip)
{
    LruTable a(2, 2);
    a.touch(1, 0);
    a.touch(1, 1);
    a.touch(1, 0);
    CkptWriter w;
    a.serialize(w);
    // Set 0: tick 0, stamps 0 0; set 1: tick 3, stamps 3 2.
    CkptReader r(w.data());
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 3u);
    EXPECT_EQ(r.u64(), 3u);
    EXPECT_EQ(r.u64(), 2u);
    LruTable b(2, 2);
    CkptReader r2(w.data());
    ASSERT_TRUE(b.deserialize(r2));
    EXPECT_EQ(b.victim(1), 1u);
    b.touch(1, 1);
    EXPECT_EQ(b.victim(1), 0u);
}
