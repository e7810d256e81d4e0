/**
 * @file
 * Memory-system timing tests: MSHR merge/occupancy, store buffer,
 * buses, DRAM, and the composed hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/bus.h"
#include "mem/dram.h"
#include "mem/hierarchy.h"
#include "mem/mshr.h"
#include "mem/storebuffer.h"

using namespace smtos;

namespace {

AccessInfo
user(ThreadId t)
{
    return AccessInfo{t, Mode::User, 0};
}

AccessInfo
kern(ThreadId t)
{
    return AccessInfo{t, Mode::Kernel, 0};
}

} // namespace

TEST(Mshr, GrantAndComplete)
{
    MshrFile m("t", 4);
    auto g = m.request(100, 10);
    EXPECT_FALSE(g.merged);
    EXPECT_EQ(g.startAt, 10u);
    m.complete(100, 10, 50);
    EXPECT_EQ(m.outstanding(20), 1);
    EXPECT_EQ(m.outstanding(50), 0);
}

TEST(Mshr, MergesSameBlock)
{
    MshrFile m("t", 4);
    auto g1 = m.request(100, 10);
    m.complete(100, 10, 90);
    auto g2 = m.request(100, 20);
    EXPECT_TRUE(g2.merged);
    EXPECT_EQ(g2.mergedReadyAt, 90u);
    EXPECT_EQ(m.merges(), 1u);
    (void)g1;
}

TEST(Mshr, FullFileDelaysGrant)
{
    MshrFile m("t", 2);
    m.request(1, 0);
    m.complete(1, 0, 100);
    m.request(2, 0);
    m.complete(2, 0, 200);
    auto g = m.request(3, 0);
    EXPECT_EQ(g.startAt, 100u); // waits for the earliest completion
    EXPECT_EQ(m.fullStalls(), 1u);
}

TEST(Mshr, OccupancyIntegralAccumulates)
{
    MshrFile m("t", 4);
    auto g = m.request(1, 0);
    m.complete(1, g.startAt, 40);
    EXPECT_DOUBLE_EQ(m.occupancyIntegral(), 40.0);
}

TEST(Mshr, ExpiredEntriesReused)
{
    MshrFile m("t", 1);
    m.request(1, 0);
    m.complete(1, 0, 10);
    auto g = m.request(2, 20); // entry expired by now
    EXPECT_EQ(g.startAt, 20u);
    EXPECT_EQ(m.fullStalls(), 0u);
}

TEST(StoreBuffer, AcceptsUntilFull)
{
    StoreBuffer sb(2);
    EXPECT_EQ(sb.push(0, 100), 0u);
    EXPECT_EQ(sb.push(0, 200), 0u);
    EXPECT_TRUE(sb.full(0));
    // Third store waits until the earliest drain (cycle 100).
    EXPECT_EQ(sb.push(0, 300), 100u);
    EXPECT_EQ(sb.fullStalls(), 1u);
}

TEST(StoreBuffer, DrainsOverTime)
{
    StoreBuffer sb(2);
    sb.push(0, 50);
    sb.push(0, 60);
    EXPECT_EQ(sb.occupancy(0), 2);
    EXPECT_EQ(sb.occupancy(55), 1);
    EXPECT_EQ(sb.occupancy(60), 0);
}

TEST(Bus, LatencyAndBandwidth)
{
    Bus b("t", 32, 2); // 32B/cycle, 2-cycle latency
    // 64B transfer: 2 cycles occupancy + 2 latency.
    EXPECT_EQ(b.transfer(10, 64), 14u);
    EXPECT_EQ(b.transactions(), 1u);
}

TEST(Bus, QueuesWhenBusy)
{
    Bus b("t", 32, 2);
    b.transfer(10, 64);             // occupies 10-12
    EXPECT_EQ(b.transfer(10, 64), 16u); // starts at 12
    EXPECT_EQ(b.queueingDelay(), 2u);
    EXPECT_DOUBLE_EQ(b.avgDelay(), 1.0);
}

TEST(Bus, IdleBusNoDelay)
{
    Bus b("t", 16, 4);
    b.transfer(0, 16);
    b.transfer(100, 16);
    EXPECT_EQ(b.queueingDelay(), 0u);
}

TEST(Dram, FixedLatencyPipelined)
{
    Dram d;
    EXPECT_EQ(d.access(10), 100u);
    EXPECT_EQ(d.access(11), 101u); // fully pipelined
    EXPECT_EQ(d.accesses(), 2u);
}

/** A one-core chip's memory side: the uncore plus one core's private
 *  hierarchy. */
struct OneCore
{
    explicit OneCore(const HierarchyParams &p = HierarchyParams{})
        : uncore(p), h(p, uncore)
    {
    }
    Uncore uncore;
    Hierarchy h;
};

TEST(Hierarchy, L1HitIsFast)
{
    OneCore m;
    Hierarchy &h = m.h;
    auto fill = h.data(0x1000, user(1), false, 0);
    const Cycle later = fill.readyAt + 5;
    auto r = h.data(0x1000, user(1), false, later);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.readyAt, later + h.params().l1HitLatency);
}

TEST(Hierarchy, HitUnderFillWaitsForTheFill)
{
    OneCore m;
    Hierarchy &h = m.h;
    auto fill = h.data(0x1000, user(1), false, 0);
    auto r = h.data(0x1000, user(2), false, 10);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.readyAt, fill.readyAt);
}

TEST(Hierarchy, ColdLoadGoesToDram)
{
    OneCore m;
    Hierarchy &h = m.h;
    auto r = h.data(0x1000, user(1), false, 0);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    // At least L2 latency + DRAM latency.
    EXPECT_GT(r.readyAt, h.params().l2Latency + defaultMemLatency);
    EXPECT_EQ(m.uncore.dram().accesses(), 1u);
}

TEST(Hierarchy, L2HitAvoidsDram)
{
    HierarchyParams p;
    p.l1d.sizeBytes = 1024; // tiny L1 so we can evict easily
    OneCore m(p);
    Hierarchy &h = m.h;
    h.data(0x1000, user(1), false, 0);
    // Evict 0x1000 from tiny L1 (same set: 512B apart, 2-way).
    h.data(0x1000 + 512, user(1), false, 200);
    h.data(0x1000 + 1024, user(1), false, 400);
    const auto dram_before = m.uncore.dram().accesses();
    auto r = h.data(0x1000, user(1), false, 600);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(m.uncore.dram().accesses(), dram_before);
}

TEST(Hierarchy, StoreMissDoesNotFetchFromDram)
{
    OneCore m;
    Hierarchy &h = m.h;
    const auto before = m.uncore.dram().accesses();
    auto r = h.data(0x9000, user(1), true, 0);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(m.uncore.dram().accesses(), before); // write-validate
    // And the line is now present for subsequent loads.
    EXPECT_TRUE(h.data(0x9000, user(1), false, 100).l1Hit);
}

TEST(Hierarchy, FetchPathUsesICache)
{
    OneCore m;
    Hierarchy &h = m.h;
    auto r1 = h.fetch(0x4000, kern(1), 0);
    EXPECT_FALSE(r1.l1Hit);
    auto r2 = h.fetch(0x4000, kern(1), r1.readyAt);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(h.l1i().stats().totalAccesses(), 2u);
    EXPECT_EQ(h.l1d().stats().totalAccesses(), 0u);
}

TEST(Hierarchy, MshrMergeOnConcurrentMisses)
{
    OneCore m;
    Hierarchy &h = m.h;
    auto r1 = h.data(0x5000, user(1), false, 0);
    auto r2 = h.data(0x5000, user(2), false, 1); // same line in flight
    EXPECT_EQ(h.l1Mshr().merges(), 1u);
    EXPECT_LE(r2.readyAt, r1.readyAt);
}

TEST(Hierarchy, FlushIcacheInvalidates)
{
    OneCore m;
    Hierarchy &h = m.h;
    h.fetch(0x4000, user(1), 0);
    h.flushIcache();
    auto r = h.fetch(0x4000, user(1), 1000);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(h.l1i().stats().cause[0][static_cast<int>(
                  MissCause::OsInvalidation)],
              1u);
}

TEST(Hierarchy, DmaWriteInvalidatesCachedCopies)
{
    OneCore m;
    Hierarchy &h = m.h;
    h.data(0x8000, user(1), false, 0);
    m.uncore.dmaWrite(0x8000, 4096);
    auto r = h.data(0x8000, user(1), false, 1000);
    EXPECT_FALSE(r.l1Hit);
}

TEST(Hierarchy, FilterPrivilegedSkipsKernelRefs)
{
    HierarchyParams p;
    p.filterPrivileged = true;
    OneCore m(p);
    Hierarchy &h = m.h;
    auto r = h.data(0x1000, kern(1), false, 0);
    EXPECT_TRUE(r.l1Hit); // kernel refs complete instantly
    EXPECT_EQ(h.l1d().stats().totalAccesses(), 0u);
    // User refs still go through the cache.
    h.data(0x2000, user(2), false, 0);
    EXPECT_EQ(h.l1d().stats().totalAccesses(), 1u);
}

TEST(Hierarchy, OutstandingMissIntegralsGrow)
{
    OneCore m;
    Hierarchy &h = m.h;
    h.data(0x1000, user(1), false, 0);
    h.fetch(0x2000, user(1), 0);
    EXPECT_GT(h.dmissIntegral(), 0.0);
    EXPECT_GT(h.imissIntegral(), 0.0);
    EXPECT_GT(m.uncore.l2missIntegral(), 0.0);
}

TEST(Hierarchy, BusContentionSlowsParallelMisses)
{
    OneCore m;
    Hierarchy &h = m.h;
    Cycle first = h.data(0x10000, user(1), false, 0).readyAt;
    Cycle second = h.data(0x20000, user(2), false, 0).readyAt;
    Cycle third = h.data(0x30000, user(3), false, 0).readyAt;
    EXPECT_GE(second, first);
    EXPECT_GE(third, second);
}
