/**
 * @file
 * Tests of the log-bucketed latency histograms: bucket math at the
 * boundaries, percentile semantics on merged snapshots, and the
 * determinism contract — recording one fixed multiset of samples from
 * 1, 2, or 8 threads must export bit-identical `lat-*` rows, because
 * shard merging is an integer sum and percentiles are a pure function
 * of the merged buckets.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace dynex::obs
{
namespace
{

using Rows = std::vector<std::pair<std::string, std::uint64_t>>;

TEST(HistogramBuckets, BoundariesFollowFloorLog2)
{
    EXPECT_EQ(histogramBucket(0), 0u);
    EXPECT_EQ(histogramBucket(1), 0u);
    EXPECT_EQ(histogramBucket(2), 1u);
    EXPECT_EQ(histogramBucket(3), 1u);
    EXPECT_EQ(histogramBucket(4), 2u);
    EXPECT_EQ(histogramBucket(1023), 9u);
    EXPECT_EQ(histogramBucket(1024), 10u);
    EXPECT_EQ(histogramBucket(~0ull), 63u);
}

TEST(HistogramBuckets, UpperBoundsAreInclusiveAndSaturate)
{
    EXPECT_EQ(histogramBucketUpperNs(0), 1u);
    EXPECT_EQ(histogramBucketUpperNs(1), 3u);
    EXPECT_EQ(histogramBucketUpperNs(9), 1023u);
    EXPECT_EQ(histogramBucketUpperNs(63), ~0ull);
    // Every value lands in a bucket whose upper bound covers it.
    for (std::uint64_t ns : {0ull, 1ull, 2ull, 5ull, 1000ull, 1ull << 40})
        EXPECT_GE(histogramBucketUpperNs(histogramBucket(ns)), ns);
}

TEST(HistogramSnapshot, PercentilesClampToTheObservedMax)
{
    HistogramSet set;
    set.record(Latency::Replay, 700);
    const HistogramSnapshot snap = set.snapshot(Latency::Replay);
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.sumNs, 700u);
    // One sample: every percentile is the sample itself, not the
    // bucket ceiling (1023).
    EXPECT_EQ(snap.percentileNs(0.5), 700u);
    EXPECT_EQ(snap.percentileNs(0.99), 700u);
}

TEST(HistogramSnapshot, EmptySeriesReportsZeroAndEmitsNoRows)
{
    HistogramSet set;
    EXPECT_EQ(set.snapshot(Latency::E2ePing).percentileNs(0.5), 0u);
    Rows rows;
    set.appendStatsRows(rows);
    EXPECT_TRUE(rows.empty());
}

TEST(HistogramSnapshot, PercentileWalksTheCumulativeDistribution)
{
    HistogramSet set;
    // 90 fast samples in bucket [2,4), 10 slow ones in [1024,2048).
    for (int i = 0; i < 90; ++i)
        set.record(Latency::QueueWait, 3);
    for (int i = 0; i < 10; ++i)
        set.record(Latency::QueueWait, 1500);
    const HistogramSnapshot snap = set.snapshot(Latency::QueueWait);
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.percentileNs(0.5), 3u);
    EXPECT_EQ(snap.percentileNs(0.90), 3u);
    // The slow tail: bucket upper bound 2047, clamped to maxNs 1500.
    EXPECT_EQ(snap.percentileNs(0.95), 1500u);
    EXPECT_EQ(snap.percentileNs(0.99), 1500u);
}

TEST(HistogramSnapshot, MergeIsAnIntegerSum)
{
    HistogramSet a, b;
    a.record(Latency::StoreLoad, 10);
    a.record(Latency::StoreLoad, 2000);
    b.record(Latency::StoreLoad, 10);
    HistogramSnapshot merged = a.snapshot(Latency::StoreLoad);
    merged.merge(b.snapshot(Latency::StoreLoad));
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.sumNs, 2020u);
    EXPECT_EQ(merged.maxNs, 2000u);
}

/** The fixed sample multiset used for the determinism contract:
 * wide dynamic range, duplicates, and an outlier. */
std::vector<std::uint64_t>
fixedSamples()
{
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 0x243f6a8885a308d3ull; // deterministic scramble
    for (int i = 0; i < 4096; ++i)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(x % 5'000'000);
    }
    samples.push_back(3'000'000'000ull); // 3 s outlier
    return samples;
}

/** Record @p samples striped over @p threads threads, then export
 * every series row. */
Rows
rowsAtThreadCount(const std::vector<std::uint64_t> &samples,
                  unsigned threads)
{
    HistogramSet set;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&set, &samples, t, threads] {
            for (std::size_t i = t; i < samples.size(); i += threads)
            {
                set.record(Latency::E2eSweep, samples[i]);
                set.record(Latency::Serialize, samples[i] / 7);
            }
        });
    for (std::thread &worker : workers)
        worker.join();
    Rows rows;
    set.appendStatsRows(rows);
    return rows;
}

TEST(HistogramDeterminism, RowsAreBitIdenticalAt1And2And8Workers)
{
    const std::vector<std::uint64_t> samples = fixedSamples();
    const Rows at1 = rowsAtThreadCount(samples, 1);
    const Rows at2 = rowsAtThreadCount(samples, 2);
    const Rows at8 = rowsAtThreadCount(samples, 8);
    ASSERT_FALSE(at1.empty());
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);
}

TEST(HistogramRows, FollowTheExportNamingConvention)
{
    HistogramSet set;
    set.record(Latency::E2ePing, 1000);   // 1 us
    set.record(Latency::E2ePing, 500000); // 500 us
    Rows rows;
    set.appendStatsRows(rows);

    ASSERT_GE(rows.size(), 6u);
    EXPECT_EQ(rows[0].first, "lat-e2e-ping-count");
    EXPECT_EQ(rows[0].second, 2u);
    EXPECT_EQ(rows[1].first, "lat-e2e-ping-sum-us");
    EXPECT_EQ(rows[1].second, 501u);
    EXPECT_EQ(rows[2].first, "lat-e2e-ping-p50-us");
    EXPECT_EQ(rows[3].first, "lat-e2e-ping-p95-us");
    EXPECT_EQ(rows[4].first, "lat-e2e-ping-p99-us");
    EXPECT_EQ(rows[5].first, "lat-e2e-ping-max-us");
    EXPECT_EQ(rows[5].second, 500u);

    // Cumulative le rows follow, ending at the highest non-empty
    // bucket, whose cumulative count is the total.
    ASSERT_GT(rows.size(), 6u);
    for (std::size_t i = 6; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].first.find("lat-e2e-ping-le-"), 0u);
    EXPECT_EQ(rows.back().second, 2u);
}

} // namespace
} // namespace dynex::obs
