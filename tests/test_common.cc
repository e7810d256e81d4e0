/**
 * @file
 * Unit tests for the common substrate: rng, stats, tables, types, and
 * the benches' BENCH_simspeed.json ledger splice.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../bench/bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

using namespace smtos;

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng a(0);
    EXPECT_NE(a.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        lo |= (v == 3);
        hi |= (v == 5);
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRate)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, MixHashIsPure)
{
    EXPECT_EQ(mixHash(123, 456), mixHash(123, 456));
    EXPECT_NE(mixHash(123, 456), mixHash(123, 457));
}

TEST(Stats, PctAndRatioGuardZero)
{
    EXPECT_EQ(pct(5, 0), 0.0);
    EXPECT_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
}

TEST(Sampler, Basics)
{
    Sampler s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(2);
    s.sample(4);
    s.sample(6);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Sampler, Reset)
{
    Sampler s;
    s.sample(10);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(Sampler, FromSumCount)
{
    Sampler s = Sampler::fromSumCount(30.0, 10);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0, 100, 10);
    h.sample(5);
    h.sample(15);
    h.sample(-50);  // clamps into bucket 0
    h.sample(1000); // clamps into the last bucket
    EXPECT_EQ(h.totalSamples(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
}

TEST(Histogram, BucketLowerBounds)
{
    Histogram h(0, 100, 10);
    EXPECT_EQ(h.bucketLo(0), 0);
    EXPECT_EQ(h.bucketLo(5), 50);
}

TEST(Histogram, WeightedMean)
{
    Histogram h(0, 10, 10);
    h.sample(2, 3);
    h.sample(8, 1);
    EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 8.0) / 4.0);
}

TEST(Histogram, QuantilesOfUniformSamples)
{
    Histogram h(0, 100, 10);
    for (int v = 0; v < 100; ++v)
        h.sample(v);
    // rank = ceil(q*n), value interpolated at (rank - cum - 0.5)/n
    // inside the owning bucket.
    EXPECT_DOUBLE_EQ(h.p50(), 49.5);
    EXPECT_DOUBLE_EQ(h.p95(), 94.5);
    EXPECT_DOUBLE_EQ(h.p99(), 98.5);
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
}

TEST(Histogram, P999OfUniformSamples)
{
    // p999 needs at least ~1000 samples to separate from p99.
    Histogram h(0, 1000, 10);
    for (int v = 0; v < 1000; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.p50(), 499.5);
    EXPECT_DOUBLE_EQ(h.p99(), 989.5);
    EXPECT_DOUBLE_EQ(h.p999(), 998.5);
    EXPECT_LE(h.p99(), h.p999());
    EXPECT_LE(h.p999(), 1000.0);
}

TEST(Histogram, P999EmptyAndPointMass)
{
    Histogram e(0, 100, 10);
    EXPECT_DOUBLE_EQ(e.p999(), 0.0);

    Histogram h(0, 10, 10);
    h.sample(7, 2000); // all weight in bucket [7, 8)
    EXPECT_GE(h.p999(), 7.0);
    EXPECT_LT(h.p999(), 8.0);
}

TEST(Histogram, QuantileEdgeRanksAndPointMass)
{
    Histogram h(0, 10, 10);
    h.sample(3, 100); // all weight in bucket [3, 4)
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0 + (1.0 - 0.5) / 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0 + (100.0 - 0.5) / 100.0);
    EXPECT_GE(h.p50(), 3.0);
    EXPECT_LT(h.p50(), 4.0);
}

TEST(Histogram, QuantilesOfClampedTerminalBuckets)
{
    // Out-of-range samples clamp into the terminal buckets; the
    // reported quantile must stay inside [lo, hi].
    Histogram h(0, 100, 10);
    h.sample(1'000'000, 10); // clamps into bucket 9 = [90, 100)
    EXPECT_DOUBLE_EQ(h.p50(), 90.0 + (5.0 - 0.5));
    EXPECT_LE(h.p99(), 100.0);

    Histogram lo(0, 100, 10);
    lo.sample(-50, 4); // clamps into bucket 0 = [0, 10)
    EXPECT_DOUBLE_EQ(lo.p50(), (2.0 - 0.5) / 4.0 * 10.0);
    EXPECT_GE(lo.quantile(0.0), 0.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero)
{
    Histogram h(0, 100, 10);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(CounterMap, AddAndTotal)
{
    CounterMap m;
    m.add("a");
    m.add("a", 2);
    m.add("b", 5);
    EXPECT_EQ(m.get("a"), 3u);
    EXPECT_EQ(m.get("b"), 5u);
    EXPECT_EQ(m.get("missing"), 0u);
    EXPECT_EQ(m.total(), 8u);
}

TEST(BenchLedger, RerecordingEqualsOneRound)
{
    auto round = [](const std::string &path) {
        bench::recordEntry(path, "first", "        \"x\": 1\n");
        bench::recordEntry(path, "second", "        \"y\": 2\n");
    };
    auto text = [](const std::string &path) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string once = testing::TempDir() + "ledger_once.json";
    const std::string thrice = testing::TempDir() + "ledger_thrice.json";
    std::remove(once.c_str());
    std::remove(thrice.c_str());
    round(once);
    for (int i = 0; i < 3; ++i)
        round(thrice);
    EXPECT_EQ(text(thrice), text(once));
    EXPECT_EQ(text(once), "{\n  \"entries\": [\n"
                          "    {\n      \"label\": \"first\",\n"
                          "      \"benchmarks\": {\n        \"x\": 1\n"
                          "      }\n    },\n"
                          "    {\n      \"label\": \"second\",\n"
                          "      \"benchmarks\": {\n        \"y\": 2\n"
                          "      }\n    }\n  ]\n}\n");
    std::remove(once.c_str());
    std::remove(thrice.c_str());
}

TEST(TextTable, RendersAllCells)
{
    TextTable t("demo");
    t.header({"col1", "column2"});
    t.row({"a", TextTable::num(3.14159, 2)});
    t.row({TextTable::num(std::uint64_t{42}),
           TextTable::percent(12.345)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("col1"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);
}

TEST(Types, PageHelpers)
{
    EXPECT_EQ(pageOf(0x12345), 0x12ull);
    EXPECT_EQ(pageOffset(0x12345), 0x345ull);
    EXPECT_EQ(pageBytes, 4096u);
}

TEST(Types, ModeNames)
{
    EXPECT_STREQ(modeName(Mode::User), "user");
    EXPECT_STREQ(modeName(Mode::Kernel), "kernel");
    EXPECT_STREQ(modeName(Mode::Pal), "pal");
    EXPECT_STREQ(modeName(Mode::Idle), "idle");
}

TEST(Types, PrivilegeClassification)
{
    EXPECT_FALSE(isPrivileged(Mode::User));
    EXPECT_TRUE(isPrivileged(Mode::Kernel));
    EXPECT_TRUE(isPrivileged(Mode::Pal));
    EXPECT_FALSE(isPrivileged(Mode::Idle));
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(smtos_panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeath, AssertAborts)
{
    EXPECT_DEATH(smtos_assert(1 == 2), "assertion failed");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(smtos_fatal("bad config"),
                testing::ExitedWithCode(1), "bad config");
}
