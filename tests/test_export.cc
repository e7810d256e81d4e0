/**
 * @file
 * Metrics-export tests: JSON structure and CSV rows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "sim/export.h"

using namespace smtos;

namespace {

MetricsSnapshot
sample()
{
    MetricsSnapshot s;
    s.core.cycles = 500;
    s.core.retired[0] = 800;
    s.core.retired[1] = 200;
    s.core.retiredByTag[TagRead] = 120;
    s.core.condRetired[0] = 50;
    s.core.condMispred[0] = 5;
    s.l1d.accesses[0] = 100;
    s.l1d.misses[0] = 10;
    s.requestsServed = 4;
    return s;
}

/** Every exported counter distinct, two core slices, and every
 *  optional object present (banked DRAM, latency, reqtrace, overload,
 *  fidelity, cores[]/smp). */
MetricsSnapshot
everyObject()
{
    std::uint64_t v = 1;
    auto fill = [&v](InterferenceStats &s) {
        for (int c = 0; c < 2; ++c) {
            s.accesses[c] = 1000 + v++;
            s.misses[c] = v++;
            for (int k = 0; k < numMissCauses; ++k)
                s.cause[c][k] = v++;
            for (int f = 0; f < 2; ++f)
                s.avoided[c][f] = v++;
        }
    };
    auto core = [&v](CoreStats &s) {
        s.cycles = 10000 + v++;
        s.fetched = 5000 + v++;
        s.squashed = v++;
        for (auto &r : s.retired)
            r = 1000 + v++;
        s.retiredByTag[TagRead] = v++;
        s.retiredByTag[TagNetIsr] = v++;
        for (int c = 0; c < 2; ++c) {
            s.condRetired[c] = 100 + v++;
            s.condMispred[c] = v++;
        }
        s.zeroFetchCycles = 6000 + v++;
        s.zeroIssueCycles = 5000 + v++;
        s.maxIssueCycles = 100 + v++;
        s.fetchableContexts = Sampler::fromSumCount(
            static_cast<double>(3 * s.cycles), s.cycles);
    };
    auto lock = [&v](LockStats &l) {
        l.acquisitions = v++;
        l.contended = v++;
        l.spinCycles = v++;
        l.holdCycles = v++;
    };

    MetricsSnapshot s;
    for (int c = 0; c < 2; ++c) {
        CoreSlice sl;
        core(sl.core);
        fill(sl.btb);
        fill(sl.l1i);
        fill(sl.l1d);
        fill(sl.itlb);
        fill(sl.dtlb);
        sl.btbWrongTarget = v++;
        sl.lockSpinCycles = v++;
        s.cores.push_back(sl);
    }
    core(s.core);
    s.core.cycles = std::max(s.cores[0].core.cycles,
                             s.cores[1].core.cycles);
    for (InterferenceStats *i : {&s.btb, &s.l1i, &s.l1d, &s.l2, &s.itlb,
                                 &s.dtlb})
        fill(*i);
    s.btbWrongTarget = v++;
    s.imissIntegral = 1.5 * static_cast<double>(v++);
    s.dmissIntegral = 2.5 * static_cast<double>(v++);
    s.l2missIntegral = 0.5 * static_cast<double>(v++);
    s.requestsServed = v++;
    s.contextSwitches = v++;

    FaultCounters &f = s.faults;
    for (std::uint64_t *m :
         {&f.pktLost, &f.pktDelayed, &f.pktReordered, &f.nicIntrDrops,
          &f.mceRaised, &f.mceKills, &f.synDrops, &f.backlogDrops,
          &f.retransmits, &f.clientAborts})
        *m = v++;

    DramStats &d = s.dram;
    d.banked = true;
    for (std::uint64_t *m :
         {&d.accesses, &d.rowHits, &d.rowEmpties, &d.rowConflicts,
          &d.latencyCycles, &d.queueStallCycles, &d.queueFullStalls,
          &d.queueOccupancy})
        *m = v++;
    d.chAccesses = {v++, v++};
    d.chBusyCycles = {v++, v++};
    d.bankRowHits = {v++, v++, v++, v++};
    d.bankRowConflicts = {v++, v++, v++, v++};

    for (LatencySummary *l : {&s.latency, &s.retriedLatency}) {
        l->count = v++;
        l->mean = 0.25 + static_cast<double>(v++);
        l->p50 = static_cast<double>(v++);
        l->p95 = static_cast<double>(v++);
        l->p99 = static_cast<double>(v++);
        l->p999 = static_cast<double>(v++);
    }

    ReqTraceStats &r = s.reqtrace;
    r.enabled = 1;
    for (std::uint64_t *m :
         {&r.tracked, &r.completedClean, &r.completedRetried,
          &r.completedIrregular, &r.aborted, &r.retransmitAnnotations,
          &r.dropAnnotations})
        *m = v++;
    for (auto &c : r.stageCycles)
        c = v++;
    r.queueingCycles = v++;
    r.serviceCycles = v++;

    OverloadStats &o = s.overload;
    o.enabled = true;
    for (std::uint64_t *m :
         {&o.offeredArrivals, &o.arrivalOverflows, &o.goodput,
          &o.clientAborts, &o.slowCompletions, &o.admitDropTail,
          &o.admitRedDrops, &o.admitShed, &o.mbufExhausted,
          &o.mbufTxWraps})
        *m = v++;

    s.fidelity.funcInstrs = v++;
    s.fidelity.funcCycles = v++;
    s.fidelity.switches = v++;

    lock(s.smp.connLock);
    lock(s.smp.mbufLock);
    lock(s.smp.schedLock);
    s.smp.workSteals = v++;
    s.smp.shootdownIpis = v++;
    s.smp.shootdownsDelivered = v++;
    CoherenceStats &h = s.smp.coherence;
    for (std::uint64_t *m : {&h.snoopProbes, &h.invalidations,
                             &h.downgrades, &h.interventionWritebacks,
                             &h.upgrades})
        *m = v++;
    return s;
}

} // namespace

TEST(Export, JsonContainsHeadlineFields)
{
    const std::string j = toJson(sample());
    EXPECT_NE(j.find("\"cycles\":500"), std::string::npos);
    EXPECT_NE(j.find("\"instructions\":1000"), std::string::npos);
    EXPECT_NE(j.find("\"ipc\":2"), std::string::npos);
    EXPECT_NE(j.find("\"user\":80"), std::string::npos);
    EXPECT_NE(j.find("\"requests_served\":4"), std::string::npos);
}

TEST(Export, JsonContainsTagBreakdown)
{
    const std::string j = toJson(sample());
    EXPECT_NE(j.find("\"read\":120"), std::string::npos);
}

TEST(Export, JsonBalancedBraces)
{
    const std::string j = toJson(sample());
    int depth = 0;
    for (char c : j) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
}

TEST(Export, JsonInterferenceArrays)
{
    const std::string j = toJson(sample());
    EXPECT_NE(j.find("\"l1d\":{\"accesses\":[100,0]"),
              std::string::npos);
}

TEST(Export, CsvHeaderAndRow)
{
    std::ostringstream os;
    writeCsvRow(os, "run1", sample(), true);
    writeCsvRow(os, "run2", sample(), false);
    const std::string csv = os.str();
    // Exactly one header plus two data rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find("label,cycles"), std::string::npos);
    EXPECT_NE(csv.find("run1,500,1000,2"), std::string::npos);
    EXPECT_NE(csv.find("run2,"), std::string::npos);
}

TEST(Export, CsvColumnCountConsistent)
{
    std::ostringstream os;
    writeCsvRow(os, "x", sample(), true);
    std::string header, row;
    std::istringstream in(os.str());
    std::getline(in, header);
    std::getline(in, row);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
}

// Pins the JSON and CSV bytes of every exported object, including the
// optional ones; the fetch shares are per core-cycle (two slices).
TEST(Export, EveryObjectIsByteStable)
{
    const MetricsSnapshot s = everyObject();
    EXPECT_EQ(toJson(s),
              "{\"cycles\":10109,"
              "\"instructions\":4886,"
              "\"ipc\":0.483332,"
              "\"modes\":{\"user\":24.9693,\"kernel\":24.9898,"
              "\"pal\":25.0102,\"idle\":25.0307},"
              "\"rates\":{\"l1i\":20.4301,\"l1d\":21.5548,\"l2\":22.6481,"
              "\"itlb\":23.7113,\"dtlb\":24.7458,\"btb\":19.2727,"
              "\"br_mispred\":69.7248,\"squashed\":4.19701},"
              "\"fetch\":{\"zero_fetch\":30.8141,\"zero_issue\":25.873,"
              "\"max_issue\":1.6421,\"fetchable\":3},"
              "\"outstanding\":{\"imiss\":0.0507469,\"dmiss\":0.0848254,"
              "\"l2miss\":0.0170145},"
              "\"tags\":{\"read\":224,\"netisr\":225},"
              "\"l1i\":{\"accesses\":[1251,1260],\"misses\":[252,261],"
              "\"causes\":[[253,254,255,256,257],[262,263,264,265,266]],"
              "\"avoided\":[[258,259],[267,268]]},"
              "\"l1d\":{\"accesses\":[1269,1278],\"misses\":[270,279],"
              "\"causes\":[[271,272,273,274,275],[280,281,282,283,284]],"
              "\"avoided\":[[276,277],[285,286]]},"
              "\"l2\":{\"accesses\":[1287,1296],\"misses\":[288,297],"
              "\"causes\":[[289,290,291,292,293],[298,299,300,301,302]],"
              "\"avoided\":[[294,295],[303,304]]},"
              "\"dtlb\":{\"accesses\":[1323,1332],\"misses\":[324,333],"
              "\"causes\":[[325,326,327,328,329],[334,335,336,337,338]],"
              "\"avoided\":[[330,331],[339,340]]},"
              "\"btb\":{\"accesses\":[1233,1242],\"misses\":[234,243],"
              "\"causes\":[[235,236,237,238,239],[244,245,246,247,248]],"
              "\"avoided\":[[240,241],[249,250]]},"
              "\"requests_served\":345,"
              "\"context_switches\":346,"
              "\"faults\":{\"pkt_lost\":347,\"pkt_delayed\":348,"
              "\"pkt_reordered\":349,\"nic_intr_drops\":350,"
              "\"mce_raised\":351,\"mce_kills\":352,\"syn_drops\":353,"
              "\"backlog_drops\":354,\"retransmits\":355,"
              "\"client_aborts\":356},"
              "\"dram\":{\"accesses\":357,\"row_hits\":358,"
              "\"row_empties\":359,\"row_conflicts\":360,"
              "\"avg_latency\":1.0112,\"queue_stall_cycles\":362,"
              "\"queue_full_stalls\":363,\"queue_occupancy\":364,"
              "\"ch_accesses\":[365,366],\"ch_busy_cycles\":[367,368],"
              "\"bank_row_hits\":[369,370,371,372],"
              "\"bank_row_conflicts\":[373,374,375,376]},"
              "\"latency\":{\"count\":377,\"mean\":378.25,\"p50\":379,"
              "\"p95\":380,\"p99\":381,\"p999\":382},"
              "\"retried_latency\":{\"count\":383,\"mean\":384.25,"
              "\"p50\":385,\"p95\":386,\"p99\":387,\"p999\":388},"
              "\"reqtrace\":{\"tracked\":389,\"completed_clean\":390,"
              "\"completed_retried\":391,\"completed_irregular\":392,"
              "\"aborted\":393,\"retransmit_annotations\":394,"
              "\"drop_annotations\":395,\"stage_cycles\":{\"nic_wait\":396,"
              "\"netstack\":397,\"accept_wait\":398,\"sched_wait\":399,"
              "\"service\":400,\"transmit\":401},\"queueing_cycles\":402,"
              "\"service_cycles\":403},"
              "\"overload\":{\"offered_arrivals\":404,"
              "\"arrival_overflows\":405,\"goodput\":406,"
              "\"client_aborts\":407,\"slow_completions\":408,"
              "\"admit_drop_tail\":409,\"admit_red_drops\":410,"
              "\"admit_shed\":411,\"mbuf_exhausted\":412,"
              "\"mbuf_tx_wraps\":413},"
              "\"fidelity\":{\"functional_instructions\":414,"
              "\"functional_cycles\":415,\"switches\":416},"
              "\"cores\":[{\"cycles\":10001,\"instructions\":4022,"
              "\"ipc\":0.40216,\"retired\":[1004,1005,1006,1007],"
              "\"lock_spin_cycles\":108,\"l1i\":{\"accesses\":[1035,1044],"
              "\"misses\":[36,45],\"causes\":[[37,38,39,40,41],[46,47,48,"
              "49,50]],\"avoided\":[[42,43],[51,52]]},"
              "\"l1d\":{\"accesses\":[1053,1062],\"misses\":[54,63],"
              "\"causes\":[[55,56,57,58,59],[64,65,66,67,68]],"
              "\"avoided\":[[60,61],[69,70]]},\"dtlb\":{\"accesses\":[1089,"
              "1098],\"misses\":[90,99],\"causes\":[[91,92,93,94,95],[100,"
              "101,102,103,104]],\"avoided\":[[96,97],[105,106]]}},"
              "{\"cycles\":10109,\"instructions\":4454,\"ipc\":0.440597,"
              "\"retired\":[1112,1113,1114,1115],\"lock_spin_cycles\":216,"
              "\"l1i\":{\"accesses\":[1143,1152],\"misses\":[144,153],"
              "\"causes\":[[145,146,147,148,149],[154,155,156,157,158]],"
              "\"avoided\":[[150,151],[159,160]]},"
              "\"l1d\":{\"accesses\":[1161,1170],\"misses\":[162,171],"
              "\"causes\":[[163,164,165,166,167],[172,173,174,175,176]],"
              "\"avoided\":[[168,169],[177,178]]},"
              "\"dtlb\":{\"accesses\":[1197,1206],\"misses\":[198,207],"
              "\"causes\":[[199,200,201,202,203],[208,209,210,211,212]],"
              "\"avoided\":[[204,205],[213,214]]}}],"
              "\"smp\":{\"work_steals\":429,\"shootdown_ipis\":430,"
              "\"shootdowns_delivered\":431,"
              "\"conn_lock\":{\"acquisitions\":417,\"contended\":418,"
              "\"spin_cycles\":419,\"hold_cycles\":420},"
              "\"mbuf_lock\":{\"acquisitions\":421,\"contended\":422,"
              "\"spin_cycles\":423,\"hold_cycles\":424},"
              "\"sched_lock\":{\"acquisitions\":425,\"contended\":426,"
              "\"spin_cycles\":427,\"hold_cycles\":428},"
              "\"coherence\":{\"snoop_probes\":432,\"invalidations\":433,"
              "\"downgrades\":434,\"intervention_writebacks\":435,"
              "\"upgrades\":436}}}");
    std::ostringstream os;
    writeCsvRow(os, "every", s, true);
    EXPECT_EQ(os.str(),
              "label,cycles,instructions,ipc,user_pct,kernel_pct,pal_pct,"
              "idle_pct,l1i_miss,l1d_miss,l2_miss,itlb_miss,dtlb_miss,"
              "br_mispred,squashed_pct\n"
              "every,10109,4886,0.483332,24.9693,24.9898,25.0102,25.0307,"
              "20.4301,21.5548,22.6481,23.7113,24.7458,69.7248,4.19701\n");
}
