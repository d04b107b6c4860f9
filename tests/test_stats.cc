/**
 * @file
 * Unit tests for RunningStat.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace tempest
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, MeanMinMax)
{
    RunningStat s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

} // namespace
} // namespace tempest
