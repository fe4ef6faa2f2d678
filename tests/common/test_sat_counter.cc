/** @file Unit tests for the saturating counter. */

#include <gtest/gtest.h>

#include "common/sat_counter.hh"

using namespace vpir;

TEST(SatCounter, SaturatesHigh)
{
    SatCounter<2> c(0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_EQ(c.max(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter<2> c(3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, IsSetAboveMidpoint)
{
    SatCounter<2> c(0);
    EXPECT_FALSE(c.isSet());
    c.increment(); // 1
    EXPECT_FALSE(c.isSet());
    c.increment(); // 2
    EXPECT_TRUE(c.isSet());
    c.increment(); // 3
    EXPECT_TRUE(c.isSet());
}

TEST(SatCounter, AtLeastThreshold)
{
    SatCounter<3> c(5);
    EXPECT_TRUE(c.atLeast(5));
    EXPECT_TRUE(c.atLeast(0));
    EXPECT_FALSE(c.atLeast(6));
}

TEST(SatCounter, ResetToValue)
{
    SatCounter<2> c(3);
    c.reset(1);
    EXPECT_EQ(c.value(), 1u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

/** Property: a counter never leaves [0, max] under random walks. */
TEST(SatCounter, StaysBoundedUnderRandomWalk)
{
    SatCounter<3> c(4);
    uint64_t s = 12345;
    for (int i = 0; i < 10000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        if (s >> 63)
            c.increment();
        else
            c.decrement();
        ASSERT_LE(c.value(), c.max());
    }
}

/** Up to 8 bits a counter is one byte, so large tables stay dense. */
TEST(SatCounter, PackedStorage)
{
    EXPECT_EQ(sizeof(SatCounter<2>), 1u);
    EXPECT_EQ(sizeof(SatCounter<8>), 1u);
    EXPECT_EQ(sizeof(SatCounter<15>), 2u);
}

/** Count a BITS-bit counter up past saturation; it must stop at
 *  2^BITS - 1. */
template <unsigned BITS>
void
checkWidth()
{
    SatCounter<BITS> c(0);
    EXPECT_EQ(c.max(), (1u << BITS) - 1);
    for (unsigned i = 0; i < c.max() + 5; ++i)
        c.increment();
    EXPECT_EQ(c.value(), c.max());
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, MaxMatchesWidth)
{
    switch (GetParam()) {
      case 1: checkWidth<1>(); break;
      case 2: checkWidth<2>(); break;
      case 3: checkWidth<3>(); break;
      case 4: checkWidth<4>(); break;
      case 8: checkWidth<8>(); break;
      case 15: checkWidth<15>(); break;
      default: FAIL() << "no instantiation for width " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1, 2, 3, 4, 8, 15));
