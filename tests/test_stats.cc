/**
 * @file
 * Unit tests for common/stats: running scalars and power-of-two
 * histograms.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/stats.hh"
#include "expect_throw.hh"

namespace
{

using lsim::stats::Log2Histogram;
using lsim::stats::Scalar;
using lsim::stats::floorLog2;

TEST(Scalar, EmptyIsZero)
{
    Scalar s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Scalar, BasicMoments)
{
    Scalar s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Scalar, MergeMatchesCombinedStream)
{
    Scalar a, b, combined;
    for (int i = 0; i < 50; ++i) {
        const double v = 0.37 * i - 3.0;
        a.sample(v);
        combined.sample(v);
    }
    for (int i = 0; i < 31; ++i) {
        const double v = 1.1 * i + 10.0;
        b.sample(v);
        combined.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(Scalar, MergeWithEmptySides)
{
    Scalar a, empty;
    a.sample(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    Scalar e2;
    e2.merge(a);
    EXPECT_EQ(e2.count(), 1u);
    EXPECT_DOUBLE_EQ(e2.mean(), 3.0);
}

TEST(Scalar, SampleNMatchesLoop)
{
    Scalar bulk, loop;
    bulk.sampleN(4.5, 1000);
    bulk.sample(2.0);
    for (int i = 0; i < 1000; ++i)
        loop.sample(4.5);
    loop.sample(2.0);
    EXPECT_EQ(bulk.count(), loop.count());
    EXPECT_NEAR(bulk.mean(), loop.mean(), 1e-12);
    EXPECT_NEAR(bulk.variance(), loop.variance(), 1e-9);
}

TEST(Scalar, ResetClears)
{
    Scalar s;
    s.sample(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(FloorLog2, PowersAndBetween)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(4), 2);
    EXPECT_EQ(floorLog2(8191), 12);
    EXPECT_EQ(floorLog2(8192), 13);
    EXPECT_EQ(floorLog2(std::uint64_t{1} << 63), 63);
}

TEST(Log2Histogram, BucketLayout)
{
    Log2Histogram h(8192);
    // Buckets [1,2),[2,4),...,[4096,8192), plus the clamp bucket.
    EXPECT_EQ(h.numBuckets(), 14u);
    EXPECT_EQ(h.bucketLow(0), 1u);
    EXPECT_EQ(h.bucketLow(13), 8192u);
}

TEST(Log2Histogram, SampleRouting)
{
    Log2Histogram h(8192);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4095);
    h.sample(8192);
    h.sample(100000);
    EXPECT_DOUBLE_EQ(h.bucketWeight(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(11), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(13), 2.0); // clamp bucket
    EXPECT_EQ(h.totalCount(), 6u);
}

TEST(Log2Histogram, ZeroIgnored)
{
    Log2Histogram h(64);
    h.sample(0);
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 0.0);
}

TEST(Log2Histogram, WeightsAccumulate)
{
    Log2Histogram h(64);
    h.sample(5, 2.5);
    h.sample(5, 0.5);
    EXPECT_DOUBLE_EQ(h.bucketWeight(2), 3.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 3.0);
}

TEST(Log2Histogram, MergeAndNormalize)
{
    Log2Histogram a(64), b(64);
    a.sample(1, 1.0);
    b.sample(32, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.totalWeight(), 4.0);
    const auto n = a.normalized();
    EXPECT_NEAR(n.totalWeight(), 1.0, 1e-12);
    EXPECT_NEAR(n.bucketWeight(5), 0.75, 1e-12);
}

TEST(Log2HistogramDeath, BadClamp)
{
    EXPECT_THROW_WITH(Log2Histogram h(100), std::invalid_argument,
                      "power of two");
}

class Log2HistogramClampTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(Log2HistogramClampTest, ClampBucketCatchesEverythingAbove)
{
    const std::uint64_t clamp = GetParam();
    Log2Histogram h(clamp);
    h.sample(clamp - 1);
    h.sample(clamp);
    h.sample(clamp * 3);
    EXPECT_DOUBLE_EQ(h.bucketWeight(h.numBuckets() - 1), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Clamps, Log2HistogramClampTest,
                         ::testing::Values(2, 8, 64, 1024, 8192));

} // namespace
