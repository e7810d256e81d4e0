/**
 * @file
 * Metrics tests: snapshot deltas, mode shares, mix rows, miss
 * breakdowns, sharing breakdowns, and the counter-struct field lists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/metrics.h"
#include "workload/apache.h"

using namespace smtos;

namespace {

MetricsSnapshot
synthetic()
{
    MetricsSnapshot s;
    s.core.cycles = 1000;
    s.core.retired[0] = 600; // user
    s.core.retired[1] = 300; // kernel
    s.core.retired[2] = 50;  // pal
    s.core.retired[3] = 50;  // idle
    s.core.fetched = 1200;
    s.core.squashed = 120;
    s.core.condRetired[0] = 100;
    s.core.condMispred[0] = 9;
    s.core.condTaken[0] = 60;
    s.core.mix[0][static_cast<int>(MixClass::Load)] = 120;
    s.core.mix[0][static_cast<int>(MixClass::Store)] = 60;
    s.core.mix[0][static_cast<int>(MixClass::CondBranch)] = 100;
    s.core.mix[0][static_cast<int>(MixClass::OtherInt)] = 320;
    s.core.physMem[0][0] = 30;
    s.core.zeroFetchCycles = 100;
    s.l1d.accesses[0] = 200;
    s.l1d.misses[0] = 20;
    s.l1d.accesses[1] = 100;
    s.l1d.misses[1] = 30;
    s.l1d.cause[0][0] = 5;
    s.l1d.cause[0][2] = 15;
    s.l1d.cause[1][1] = 30;
    s.l1d.avoided[0][1] = 10;
    s.mmEntries["page_alloc"] = 7;
    s.requestsServed = 3;
    return s;
}

} // namespace

TEST(Metrics, DeltaSubtractsCounters)
{
    MetricsSnapshot a = synthetic();
    MetricsSnapshot b = synthetic();
    b.core.cycles = 3000;
    b.core.retired[0] = 1600;
    b.core.squashed = 150;
    b.mmEntries["page_alloc"] = 17;
    b.requestsServed = 13;
    MetricsSnapshot d = b.delta(a);
    EXPECT_EQ(d.core.cycles, 2000u);
    EXPECT_EQ(d.core.retired[0], 1000u);
    EXPECT_EQ(d.core.squashed, 30u);
    EXPECT_EQ(d.mmEntries["page_alloc"], 10u);
    EXPECT_EQ(d.requestsServed, 10u);
}

TEST(Metrics, ModeSharesSumTo100)
{
    ModeShares m = modeShares(synthetic());
    EXPECT_NEAR(m.userPct + m.kernelPct + m.palPct + m.idlePct, 100.0,
                1e-9);
    EXPECT_DOUBLE_EQ(m.userPct, 60.0);
    EXPECT_DOUBLE_EQ(m.kernelPct, 30.0);
}

TEST(Metrics, ArchMetricsDerivations)
{
    ArchMetrics a = archMetrics(synthetic());
    EXPECT_DOUBLE_EQ(a.ipc, 1.0);
    EXPECT_DOUBLE_EQ(a.branchMispredPct, 9.0);
    EXPECT_DOUBLE_EQ(a.squashedPct, 10.0);
    EXPECT_DOUBLE_EQ(a.zeroFetchPct, 10.0);
    EXPECT_DOUBLE_EQ(a.l1dMissPct, 100.0 * 50 / 300);
}

TEST(Metrics, MixRowUserClass)
{
    MixRow r = mixRow(synthetic(), false);
    EXPECT_DOUBLE_EQ(r.loadPct, 20.0);
    EXPECT_DOUBLE_EQ(r.storePct, 10.0);
    EXPECT_DOUBLE_EQ(r.loadPhysPct, 25.0); // 30 of 120 loads
    EXPECT_DOUBLE_EQ(r.condTakenPct, 60.0);
    EXPECT_DOUBLE_EQ(r.condPct, 100.0); // all branches conditional
}

TEST(Metrics, MissBreakdownSumsTo100)
{
    MissBreakdown b = missBreakdown(synthetic().l1d);
    double sum = 0;
    for (int c = 0; c < 2; ++c)
        for (int k = 0; k < numMissCauses; ++k)
            sum += b.causePct[c][k];
    EXPECT_NEAR(sum, 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(b.totalMissRate[0], 10.0);
    EXPECT_DOUBLE_EQ(b.totalMissRate[1], 30.0);
}

TEST(Metrics, SharingBreakdownRelativeToMisses)
{
    SharingBreakdown b = sharingBreakdown(synthetic().l1d);
    EXPECT_DOUBLE_EQ(b.avoidedPct[0][1], 20.0); // 10 of 50 misses
}

TEST(Metrics, TagShare)
{
    MetricsSnapshot s = synthetic();
    s.core.retiredByTag[TagRead] = 100;
    EXPECT_DOUBLE_EQ(tagSharePct(s, TagRead), 10.0);
}

TEST(Metrics, GroupShareAggregatesTags)
{
    MetricsSnapshot s = synthetic();
    s.core.retiredByTag[TagPalDtlb] = 50;
    s.core.retiredByTag[TagVmFault] = 30;
    s.core.retiredByTag[TagPageZero] = 20;
    EXPECT_DOUBLE_EQ(groupSharePct(s, ServiceGroup::TlbHandling),
                     10.0);
}

TEST(Metrics, CaptureFromLiveSystem)
{
    MachineConfig cfg = smtConfig();
    System sys(cfg);
    sys.start();
    MetricsSnapshot s0 = MetricsSnapshot::capture(sys);
    sys.run(20000);
    MetricsSnapshot s1 = MetricsSnapshot::capture(sys);
    MetricsSnapshot d = s1.delta(s0);
    EXPECT_GE(d.core.totalRetired(), 20000u);
    EXPECT_GT(d.core.cycles, 0u);
    ArchMetrics a = archMetrics(d);
    EXPECT_GT(a.ipc, 0.0);
}

TEST(Metrics, DeltaKeepsLaterLatencyQuantiles)
{
    MetricsSnapshot a, b;
    a.latency = {10, 5.0, 4.0, 8.0, 9.0, 9.5};
    b.latency = {25, 6.0, 3.0, 7.0, 12.0, 20.0};
    const LatencySummary d = b.delta(a).latency;
    EXPECT_EQ(d.count, 15u);
    EXPECT_EQ(d.mean, 6.0);
    EXPECT_EQ(d.p50, 3.0);
    EXPECT_EQ(d.p95, 7.0);
    EXPECT_EQ(d.p99, 12.0);
    EXPECT_EQ(d.p999, 20.0);
}

TEST(Metrics, DeltaSubtractsKernelEntries)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.enableNetwork = true;
    System sys(cfg);
    const ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.run(50'000);
    const MetricsSnapshot s0 = MetricsSnapshot::capture(sys);
    sys.run(1'000);
    const MetricsSnapshot s1 = MetricsSnapshot::capture(sys);
    const MetricsSnapshot d = s1.delta(s0);
    ASSERT_GT(s0.core.kernelEntries.total(), 0u);
    for (const auto &[reason, n] : s1.core.kernelEntries.all())
        EXPECT_EQ(d.core.kernelEntries.get(reason),
                  n - s0.core.kernelEntries.get(reason))
            << reason;
}

TEST(Metrics, FetchSharesArePerCoreCycle)
{
    MachineConfig cfg = smtConfig();
    cfg.cores = 2;
    System sys(cfg);
    sys.start();
    const MetricsSnapshot s0 = MetricsSnapshot::capture(sys);
    sys.run(20'000);
    const MetricsSnapshot d = MetricsSnapshot::capture(sys).delta(s0);
    ASSERT_EQ(d.cores.size(), 2u);
    const double coreCycles = 2.0 * static_cast<double>(d.core.cycles);
    const ArchMetrics a = archMetrics(d);
    EXPECT_GT(d.core.zeroFetchCycles, 0u);
    EXPECT_LE(a.zeroFetchPct, 100.0);
    EXPECT_LE(a.zeroIssuePct, 100.0);
    EXPECT_LE(a.maxIssuePct, 100.0);
    EXPECT_DOUBLE_EQ(a.zeroFetchPct,
                     pct(static_cast<double>(d.core.zeroFetchCycles),
                         coreCycles));
    EXPECT_DOUBLE_EQ(a.zeroIssuePct,
                     pct(static_cast<double>(d.core.zeroIssueCycles),
                         coreCycles));
    EXPECT_DOUBLE_EQ(a.maxIssuePct,
                     pct(static_cast<double>(d.core.maxIssueCycles),
                         coreCycles));
}

TEST(Metrics, ServiceGroupNamesResolve)
{
    for (int t = 0; t < NumServiceTags; ++t) {
        EXPECT_STRNE(serviceTagName(t), "?");
        EXPECT_STRNE(serviceGroupName(serviceGroupOf(t)), "?");
    }
}

// --- The counter-struct field lists (common/counters.h) ---

namespace {

/** Give every counter reachable through the list a distinct value. */
template <typename T>
void
fillCounters(T &s, std::uint64_t &next)
{
    if constexpr (std::is_arithmetic_v<T>) {
        s = static_cast<T>(next++);
    } else if constexpr (std::is_array_v<T>) {
        for (auto &e : s)
            fillCounters(e, next);
    } else if constexpr (isCounterVector<T>) {
        s.resize(2);
        for (auto &e : s)
            fillCounters(e, next);
    } else if constexpr (std::is_same_v<T, CounterMap>) {
        s.add("a", next++);
        s.add("b", next++);
    } else if constexpr (std::is_same_v<T, Sampler>) {
        const double sum = static_cast<double>(next++);
        s = Sampler::fromSumCount(sum, next++);
    } else if constexpr (isNamedCounts<T>) {
        s["a"] = next++;
        s["b"] = next++;
    } else {
        T::fields([&](auto, auto &&m) { fillCounters(counterOf(m), next); },
                  s);
    }
}

std::string
keyName(const char *key)
{
    return key;
}

std::string
keyName(std::nullptr_t)
{
    return "(unexported)";
}

/** Expect @p d == @p b field by field, except that the chip cycle of
 *  a sum a + b is max(a, b), so its delta against a is max(a, b) - a. */
template <typename T>
void
expectDeltaOfSum(const T &d, const T &a, const T &b, const std::string &at)
{
    if constexpr (std::is_arithmetic_v<T> || isNamedCounts<T>) {
        EXPECT_EQ(d, b) << at;
    } else if constexpr (std::is_array_v<T>) {
        for (std::size_t i = 0; i < std::size(d); ++i)
            expectDeltaOfSum(d[i], a[i], b[i],
                             at + "[" + std::to_string(i) + "]");
    } else if constexpr (isCounterVector<T>) {
        ASSERT_EQ(d.size(), b.size()) << at;
        const typename T::value_type none{};
        for (std::size_t i = 0; i < d.size(); ++i)
            expectDeltaOfSum(d[i], a.empty() ? none : a[i], b[i],
                             at + "[" + std::to_string(i) + "]");
    } else if constexpr (std::is_same_v<T, CounterMap>) {
        EXPECT_EQ(d.all(), b.all()) << at;
    } else if constexpr (std::is_same_v<T, Sampler>) {
        EXPECT_EQ(d.sum(), b.sum()) << at;
        EXPECT_EQ(d.count(), b.count()) << at;
    } else {
        T::fields(
            [&](auto key, auto &&dm, auto &&am, auto &&bm) {
                const std::string name = at + "." + keyName(key);
                if constexpr (isMarker<std::decay_t<decltype(dm)>, Peak>)
                    EXPECT_EQ(dm.v, std::max(am.v, bm.v) - am.v) << name;
                else
                    expectDeltaOfSum(counterOf(dm), counterOf(am),
                                     counterOf(bm), name);
            },
            d, a, b);
    }
}

/** Bytes of a struct's members that its list leaves out (flags). */
template <typename T>
constexpr std::size_t unlistedBytes = 0;
template <>
constexpr std::size_t unlistedBytes<DramStats> = 8; // banked + padding
template <>
constexpr std::size_t unlistedBytes<OverloadStats> = 8; // enabled + pad
template <>
constexpr std::size_t unlistedBytes<ReqTraceStats> = 8; // enabled

template <typename T>
class CounterList : public ::testing::Test
{
};

using CounterStructs =
    ::testing::Types<CoreStats, InterferenceStats, FaultCounters,
                     DramStats, CoherenceStats, LockStats, SmpStats,
                     OverloadStats, ReqTraceStats, FidelityStats,
                     LatencySummary, CoreSlice, MetricsSnapshot>;

} // namespace

TYPED_TEST_SUITE(CounterList, CounterStructs);

TYPED_TEST(CounterList, DeltaOfSumIsTheAddend)
{
    TypeParam a, b;
    std::uint64_t next = 1;
    fillCounters(a, next);
    fillCounters(b, next);
    TypeParam sum = a;
    addCounters(sum, b);
    expectDeltaOfSum(counterDelta(sum, a), a, b, "sum");
    // Against a default capture (empty vectors and maps) a delta keeps
    // the later values.
    expectDeltaOfSum(counterDelta(b, TypeParam{}), TypeParam{}, b,
                     "default");
}

// A member added to a struct but not to its field list would be
// skipped by every delta, sum, export and snapshot walk.
TYPED_TEST(CounterList, ListsEveryMember)
{
    TypeParam s;
    std::size_t listed = 0;
    TypeParam::fields(
        [&listed](auto, auto &&m) { listed += sizeof(counterOf(m)); }, s);
    EXPECT_EQ(sizeof(TypeParam), listed + unlistedBytes<TypeParam>);
}
