/**
 * @file
 * Banked-DRAM controller suite (`ctest -L dram`): closed-form row
 * hit/empty/conflict latencies, FR-FCFS data-bus scheduling, open- vs
 * closed-page policies, bounded-queue backpressure, a bandwidth
 * ceiling on synthetic streaming, multi-stream interference the flat
 * model cannot produce, snapshot round-trips of mid-flight controller
 * state, and Session-level validation plus cosim-clean integration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cosim.h"
#include "harness/session.h"
#include "mem/dram.h"
#include "mem/memctrl.h"
#include "sim/export.h"
#include "snap/snapshot.h"

using namespace smtos;

namespace {

/** One channel, one rank, one bank: every access shares the row
 *  buffer, so outcomes are scripted exactly. */
DramParams
singleBank()
{
    DramParams p;
    p.banked = true;
    p.channels = 1;
    p.ranks = 1;
    p.banksPerRank = 1;
    return p;
}

const AccessInfo who{};

} // namespace

// The flat path is untouched: banked=false forwards to the
// fixed-latency Dram, and the Table-1 latency is named once.
TEST(MemCtrl, FlatModeIsTheFixedLatencyDram)
{
    EXPECT_EQ(defaultMemLatency, 90u);
    MemCtrl mc(defaultMemLatency, DramParams{});
    EXPECT_FALSE(mc.banked());
    EXPECT_EQ(mc.access(0x1000, who, 500), 590u);
    EXPECT_EQ(mc.access(0x2000, who, 700), 790u);
    EXPECT_EQ(mc.flat().accesses(), 2u);
    const DramStats s = mc.stats();
    EXPECT_FALSE(s.banked);
    EXPECT_EQ(s.accesses, 2u);
}

// Line-interleaved address decomposition: consecutive lines walk the
// channels, then the banks; the row changes every
// channels*ranks*banksPerRank*rowBytes bytes within one bank.
TEST(MemCtrl, AddressMapSpreadsLinesAcrossChannelsAndBanks)
{
    MemCtrl mc(defaultMemLatency, [] {
        DramParams p;
        p.banked = true;
        return p;
    }());
    EXPECT_EQ(mc.channelOf(0), 0);
    EXPECT_EQ(mc.channelOf(64), 1);
    EXPECT_EQ(mc.channelOf(128), 0);
    EXPECT_NE(mc.bankOf(0), mc.bankOf(128));
    // Same bank, next row: stride 2ch * 2rk * 8bk * 2048B.
    const Addr rowStride = 2 * 2 * 8 * 2048;
    EXPECT_EQ(mc.bankOf(0), mc.bankOf(rowStride));
    EXPECT_EQ(mc.rowOf(0), 0);
    EXPECT_EQ(mc.rowOf(rowStride), 1);
}

// The paper-facing latency spread, closed form: a row hit pays
// tCAS+tBurst (30), an empty bank tRCD+tCAS+tBurst (60), a conflict
// tRP+tRCD+tCAS+tBurst (90 — the flat model's Table-1 latency).
TEST(MemCtrl, RowHitEmptyConflictLatencySpread)
{
    MemCtrl mc(defaultMemLatency, singleBank());
    const Cycle empty = mc.access(0, who, 1000) - 1000;
    const Cycle hit = mc.access(64, who, 2000) - 2000;
    const Cycle conflict = mc.access(2048, who, 3000) - 3000;
    EXPECT_EQ(empty, 60u);
    EXPECT_EQ(hit, 30u);
    EXPECT_EQ(conflict, 90u);
    EXPECT_LT(hit, empty);
    EXPECT_LT(empty, conflict);
    const DramStats s = mc.stats();
    EXPECT_EQ(s.rowHits, 1u);
    EXPECT_EQ(s.rowEmpties, 1u);
    EXPECT_EQ(s.rowConflicts, 1u);
    EXPECT_EQ(s.accesses, 3u);
    EXPECT_EQ(s.latencyCycles, 180u);
}

// FR-FCFS: a later-arriving request whose bank is ready early claims
// an earlier data-bus slot than a queued row conflict — first-ready
// beats first-come on the shared channel.
TEST(MemCtrl, FrFcfsReadyRequestOvertakesQueuedConflict)
{
    DramParams p = singleBank();
    p.banksPerRank = 2;
    MemCtrl mc(defaultMemLatency, p);
    // bank0 row0 opens the row.
    const Cycle a = mc.access(0, who, 0);
    EXPECT_EQ(a, 60u);
    // bank0 row1: conflict, data not ready until after precharge +
    // activate (row stride for 2 banks is 2*2048).
    const Cycle b = mc.access(4096, who, 1);
    EXPECT_EQ(b, 150u);
    // bank1 row0 arrives last but its bank is idle: it slots into the
    // bus gap ahead of the conflict.
    const Cycle c = mc.access(64, who, 2);
    EXPECT_LT(c, b);
    EXPECT_EQ(c, 64u);
}

// Open page keeps the row latched (streaming = hits); closed page
// auto-precharges (never a conflict, never a hit, higher latency on
// row-local streams).
TEST(MemCtrl, OpenVsClosedPagePolicy)
{
    DramParams open = singleBank();
    DramParams closed = singleBank();
    closed.closedPage = true;
    MemCtrl mo(defaultMemLatency, open);
    MemCtrl mcl(defaultMemLatency, closed);
    // Stream 16 lines of row 0, each issued at the previous finish.
    Cycle to = 0, tc = 0;
    for (int i = 0; i < 16; ++i) {
        to = mo.access(static_cast<Addr>(i) * 64, who, to);
        tc = mcl.access(static_cast<Addr>(i) * 64, who, tc);
    }
    const DramStats so = mo.stats();
    const DramStats sc = mcl.stats();
    EXPECT_EQ(so.rowHits, 15u);
    EXPECT_EQ(so.rowEmpties, 1u);
    EXPECT_EQ(sc.rowHits, 0u);
    EXPECT_EQ(sc.rowConflicts, 0u);
    EXPECT_EQ(sc.rowEmpties, 16u);
    EXPECT_LT(to, tc);
    EXPECT_LT(so.avgLatency(), sc.avgLatency());
}

// The bounded per-channel queue backpressures: once queueDepth
// requests are in flight, the next arrival is pushed to the oldest
// completion.
TEST(MemCtrl, QueueBackpressureStallsArrivals)
{
    DramParams p = singleBank();
    p.queueDepth = 2;
    MemCtrl mc(defaultMemLatency, p);
    for (int i = 0; i < 8; ++i)
        mc.access(static_cast<Addr>(i) * 64, who, 0);
    const DramStats s = mc.stats();
    EXPECT_GT(s.queueFullStalls, 0u);
    EXPECT_GT(s.queueStallCycles, 0u);
    // Occupancy never exceeds the bound: the per-access sum is at
    // most accesses * queueDepth.
    EXPECT_LE(s.queueOccupancy, s.accesses * 2u);
    // Deep queue, same stream: no stalls.
    MemCtrl deep(defaultMemLatency, singleBank());
    for (int i = 0; i < 8; ++i)
        deep.access(static_cast<Addr>(i) * 64, who, 0);
    EXPECT_EQ(deep.stats().queueFullStalls, 0u);
}

// Closed-form bandwidth ceiling: each 64-byte burst holds its channel
// data bus for tBurst cycles, so streaming cannot exceed
// channels * burstBytes / tBurst bytes per cycle.
TEST(MemCtrl, StreamingBandwidthCeiling)
{
    DramParams p;
    p.banked = true; // default 2ch x 2rk x 8bk geometry
    MemCtrl mc(defaultMemLatency, p);
    constexpr int lines = 512;
    Cycle last = 0;
    for (int i = 0; i < lines; ++i)
        last = std::max(last,
                        mc.access(static_cast<Addr>(i) * 64, who, 0));
    const DramStats s = mc.stats();
    EXPECT_EQ(s.accesses, static_cast<std::uint64_t>(lines));
    // Sequential lines hit their open rows almost always.
    EXPECT_GT(s.rowHits, s.rowConflicts);
    // Per-channel data-bus occupancy is exactly tBurst per access.
    for (std::size_t ch = 0; ch < s.chAccesses.size(); ++ch)
        EXPECT_EQ(s.chBusyCycles[ch], s.chAccesses[ch] * p.tBurst);
    const double bytesPerCycle =
        static_cast<double>(lines) * 64.0 / static_cast<double>(last);
    const double ceiling = static_cast<double>(p.channels) * 64.0 /
                           static_cast<double>(p.tBurst);
    EXPECT_LE(bytesPerCycle, ceiling + 1e-9);
    // And the stream actually saturates: within 2x of the ceiling.
    EXPECT_GT(bytesPerCycle, ceiling / 2.0);
}

// Two interleaved streams thrashing one bank's row buffer see higher
// latency than either stream alone — the interference the flat
// 90-cycle model is structurally unable to produce.
TEST(MemCtrl, InterleavedStreamsThrashTheRowBuffer)
{
    constexpr int n = 32;
    // Solo: one stream inside row 0.
    MemCtrl solo(defaultMemLatency, singleBank());
    Cycle t = 0;
    for (int i = 0; i < n; ++i)
        t = solo.access(static_cast<Addr>(i % 32) * 64, who, t);
    // Interleaved: the same accesses riding with a second stream in
    // row 1 of the same bank.
    MemCtrl mixed(defaultMemLatency, singleBank());
    t = 0;
    for (int i = 0; i < n; ++i) {
        t = mixed.access(static_cast<Addr>(i % 32) * 64, who, t);
        t = mixed.access(2048 + static_cast<Addr>(i % 32) * 64, who,
                         t);
    }
    const DramStats ss = solo.stats();
    const DramStats sm = mixed.stats();
    EXPECT_EQ(ss.rowConflicts, 0u);
    // Only the very first access finds the bank precharged; every
    // later access lands on the other stream's row.
    EXPECT_EQ(sm.rowConflicts, 2u * n - 1u);
    EXPECT_GT(sm.avgLatency(), 2.0 * ss.avgLatency());
}

// Mid-flight controller state (open rows, tFAW windows, reserved bus
// intervals, in-flight queues, counters) round-trips through a
// snapshot: the restored controller continues bit-identically and
// re-serializes to the same bytes.
TEST(MemCtrl, SnapshotRoundTripsMidFlightQueues)
{
    DramParams p = singleBank();
    p.banksPerRank = 4;
    p.queueDepth = 4;
    auto stream = [](MemCtrl &mc, int from, int to) {
        std::vector<Cycle> out;
        for (int i = from; i < to; ++i)
            out.push_back(mc.access(static_cast<Addr>(i) * 56 * 64,
                                    who,
                                    static_cast<Cycle>(i) * 3));
        return out;
    };
    MemCtrl a(defaultMemLatency, p);
    stream(a, 0, 20); // queues and bus reservations still in flight
    Snapshotter sa;
    sa.beginSection("DRAM", 1);
    a.snap(sa);
    sa.endSection();
    const std::vector<std::uint8_t> bytesA = sa.finish();

    MemCtrl b(defaultMemLatency, p);
    Restorer rb(bytesA);
    ASSERT_TRUE(rb.ok()) << rb.error();
    rb.beginSection("DRAM", 1);
    b.snap(rb);
    rb.endSection();

    // Re-serialization is byte-identical…
    Snapshotter sb;
    sb.beginSection("DRAM", 1);
    b.snap(sb);
    sb.endSection();
    EXPECT_EQ(bytesA, sb.finish());

    // …and both controllers continue identically.
    EXPECT_EQ(stream(a, 20, 40), stream(b, 20, 40));
    Snapshotter sa2, sb2;
    sa2.beginSection("DRAM", 1);
    a.snap(sa2);
    sa2.endSection();
    sb2.beginSection("DRAM", 1);
    b.snap(sb2);
    sb2.endSection();
    EXPECT_EQ(sa2.finish(), sb2.finish());
}

// In flat mode the controller's snapshot blob is byte-identical to
// the plain Dram blob it replaced — pre-banked HIER sections restore
// unchanged.
TEST(MemCtrl, FlatSnapshotMatchesPlainDramBytes)
{
    MemCtrl mc(defaultMemLatency, DramParams{});
    Dram d(defaultMemLatency);
    for (Cycle t = 0; t < 5; ++t) {
        mc.access(0, who, t);
        d.access(t);
    }
    Snapshotter s1, s2;
    s1.beginSection("DRAM", 1);
    mc.snap(s1);
    s1.endSection();
    s2.beginSection("DRAM", 1);
    d.snap(s2);
    s2.endSection();
    EXPECT_EQ(s1.finish(), s2.finish());
}

// Session validation rejects broken geometry before any system is
// built.
TEST(DramConfigDeathTest, SessionRejectsBadGeometry)
{
    auto mk = [](auto mutate) {
        Session::Config cfg;
        cfg.system.dram.banked = true;
        mutate(cfg.system);
        return cfg;
    };
    EXPECT_DEATH(Session s(mk([](SystemConfig &sc) {
                     sc.dram.banksPerRank = 0;
                 })),
                 "geometry must be nonzero");
    EXPECT_DEATH(
        Session s(mk([](SystemConfig &sc) { sc.dram.channels = 3; })),
        "powers of two");
    EXPECT_DEATH(
        Session s(mk([](SystemConfig &sc) { sc.dram.queueDepth = 0; })),
        "queueDepth");
    EXPECT_DEATH(
        Session s(mk([](SystemConfig &sc) { sc.dram.rowBytes = 32; })),
        "rowBytes");
}

// Flat-mode metric exports carry no dram object (bit-identity with
// the pre-banked format); banked exports do.
TEST(DramSession, JsonExportsDramObjectOnlyWhenBanked)
{
    Session::Config flat;
    flat.phases.startupInstrs = 1;
    flat.phases.measureInstrs = 20'000;
    Session sf(flat);
    const std::string jf = toJson(sf.run().steady);
    EXPECT_EQ(jf.find("\"dram\""), std::string::npos);

    Session::Config banked = flat;
    banked.system.dram.banked = true;
    Session sb(banked);
    const std::string jb = toJson(sb.run().steady);
    EXPECT_NE(jb.find("\"dram\""), std::string::npos);
    EXPECT_NE(jb.find("\"row_hits\""), std::string::npos);
}

// The acceptance run: two contexts on a deliberately small banked
// geometry interfere in the row buffers — conflicts the flat model
// cannot represent — while the co-simulation oracle verifies every
// retired instruction.
TEST(DramSession, TwoContextInterferenceUnderCosim)
{
    Session::Config cfg;
    cfg.system.topology.contextsPerCore = 2;
    cfg.system.dram.banked = true;
    cfg.system.dram.channels = 1;
    cfg.system.dram.ranks = 1;
    cfg.system.dram.banksPerRank = 2;
    cfg.system.dram.rowBytes = 1024;
    cfg.phases.startupInstrs = 20'000;
    cfg.phases.measureInstrs = 120'000;
    cfg.cosim = true;
    Session s(cfg);
    const RunResult r = s.run(); // panics on divergence
    ASSERT_NE(s.cosim(), nullptr);
    EXPECT_FALSE(s.cosim()->diverged());
    EXPECT_TRUE(r.steady.dram.banked);
    EXPECT_GT(r.steady.dram.accesses, 0u);
    const std::uint64_t conflicts =
        r.startup.dram.rowConflicts + r.steady.dram.rowConflicts;
    EXPECT_GT(conflicts, 0u);
    // Outcome taxonomy is total: every access is exactly one of
    // hit/empty/conflict.
    EXPECT_EQ(r.steady.dram.rowHits + r.steady.dram.rowEmpties +
                  r.steady.dram.rowConflicts,
              r.steady.dram.accesses);
}

// A banked session snapshot restores with the row-buffer policy
// flipped (timing-only override), and the artifact round-trips the
// controller section.
TEST(DramSession, ResumeFlipsPagePolicyOnly)
{
    Session::Config cfg;
    cfg.system.topology.contextsPerCore = 2;
    cfg.system.dram.banked = true;
    cfg.phases.startupInstrs = 1;
    cfg.phases.measureInstrs = 30'000;
    Session s(cfg);
    s.run();
    const std::vector<std::uint8_t> art = s.snapshot();

    Session::ResumeOptions opts;
    opts.phases.measureInstrs = 20'000;
    opts.dramClosedPage = true;
    std::string err;
    auto resumed = Session::resume(art, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_TRUE(resumed->config().system.dram.closedPage);
    const RunResult r = resumed->runMeasurement();
    EXPECT_TRUE(r.steady.dram.banked);
    // Closed-page from here on: the continued run adds no row hits
    // beyond what an open row at restore time could contribute.
    EXPECT_GT(r.steady.dram.rowEmpties, 0u);
}
