#include "sim/metrics.h"

#include <algorithm>

#include "common/stats.h"
#include "kernel/kernel.h"
#include "kernel/tags.h"
#include "obs/probes.h"

namespace smtos {

LatencySummary
LatencySummary::of(const Histogram &h)
{
    LatencySummary s;
    s.count = h.totalSamples();
    s.mean = h.mean();
    s.p50 = h.p50();
    s.p95 = h.p95();
    s.p99 = h.p99();
    s.p999 = h.p999();
    return s;
}

MetricsSnapshot
MetricsSnapshot::capture(System &sys)
{
    MetricsSnapshot s;
    const Kernel &k = sys.kernel();
    // Per-core slices of the private structures; the top-level fields
    // are their machine-wide aggregates.
    for (int c = 0; c < sys.numCores(); ++c) {
        Pipeline &p = sys.pipeline(c);
        const Hierarchy &h = sys.hierarchy(c);
        CoreSlice slice;
        slice.core = p.stats();
        slice.btb = p.btb().stats();
        slice.btbWrongTarget = p.btb().wrongTargetHits();
        slice.l1i = h.l1i().stats();
        slice.l1d = h.l1d().stats();
        slice.itlb = p.itlb().stats();
        slice.dtlb = p.dtlb().stats();
        slice.lockSpinCycles = k.lockSpinCycles(c);
        addCounters(s.core, slice.core);
        addCounters(s.btb, slice.btb);
        addCounters(s.l1i, slice.l1i);
        addCounters(s.l1d, slice.l1d);
        addCounters(s.itlb, slice.itlb);
        addCounters(s.dtlb, slice.dtlb);
        s.btbWrongTarget += slice.btbWrongTarget;
        s.imissIntegral += h.imissIntegral();
        s.dmissIntegral += h.dmissIntegral();
        addCounters(s.fidelity, p.fidelityStats());
        s.cores.push_back(std::move(slice));
    }
    const Uncore &u = sys.uncore();
    s.l2 = u.l2().stats();
    s.l2missIntegral = u.l2missIntegral();
    s.dram = u.memctrl().stats();
    s.mmEntries = k.mmEntries().all();
    s.syscalls = k.syscallEntries().all();
    s.requestsServed = k.requestsServed();
    s.contextSwitches = k.contextSwitches();
    s.faults = k.faultCounters();
    if (k.params().enableNetwork) {
        const ClientPopulation &cl = sys.kernel().clients();
        s.latency = LatencySummary::of(cl.latency());
        s.retriedLatency = LatencySummary::of(cl.retriedLatency());
    }
    if (sys.probes() && sys.probes()->reqtrace()) {
        s.reqtrace = sys.probes()->reqtrace()->stats();
        s.reqtrace.enabled = 1;
    }
    s.overload = k.overloadStats();

    s.smp.connLock = k.connLock().stats;
    s.smp.mbufLock = k.mbufLock().stats;
    for (const KLock &sl : k.schedLocks())
        addCounters(s.smp.schedLock, sl.stats);
    s.smp.workSteals = k.workSteals();
    s.smp.shootdownIpis = k.shootdownIpis();
    s.smp.shootdownsDelivered = k.shootdownsDelivered();
    s.smp.coherence = u.coherence().stats();
    return s;
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &e) const
{
    return counterDelta(*this, e);
}

ModeShares
modeShares(const MetricsSnapshot &d)
{
    const double total = static_cast<double>(d.core.totalRetired());
    ModeShares s;
    s.userPct = pct(static_cast<double>(
                        d.core.retired[static_cast<int>(Mode::User)]),
                    total);
    s.kernelPct = pct(
        static_cast<double>(d.core.retired[static_cast<int>(
            Mode::Kernel)]),
        total);
    s.palPct = pct(static_cast<double>(
                       d.core.retired[static_cast<int>(Mode::Pal)]),
                   total);
    s.idlePct = pct(static_cast<double>(
                        d.core.retired[static_cast<int>(Mode::Idle)]),
                    total);
    return s;
}

double
tagSharePct(const MetricsSnapshot &d, int tag)
{
    return pct(static_cast<double>(d.core.retiredByTag[tag]),
               static_cast<double>(d.core.totalRetired()));
}

double
groupSharePct(const MetricsSnapshot &d, ServiceGroup g)
{
    double sum = 0.0;
    for (int t = 0; t < NumServiceTags; ++t)
        if (serviceGroupOf(t) == g)
            sum += tagSharePct(d, t);
    return sum;
}

ArchMetrics
archMetrics(const MetricsSnapshot &d)
{
    ArchMetrics a;
    const double cycles = static_cast<double>(d.core.cycles);
    // The fetch and issue counters are summed over the cores.
    const double coreCycles =
        cycles * static_cast<double>(std::max<std::size_t>(
                     d.cores.size(), 1));
    a.ipc = ratio(static_cast<double>(d.core.totalRetired()), cycles);
    a.fetchableContexts = d.core.fetchableContexts.mean();
    a.branchMispredPct =
        pct(static_cast<double>(d.core.condMispred[0] +
                                d.core.condMispred[1]),
            static_cast<double>(d.core.condRetired[0] +
                                d.core.condRetired[1]));
    a.squashedPct = pct(static_cast<double>(d.core.squashed),
                        static_cast<double>(d.core.fetched));
    a.btbMissPct = d.btb.missRatePct();
    a.l1iMissPct = d.l1i.missRatePct();
    a.l1dMissPct = d.l1d.missRatePct();
    a.l2MissPct = d.l2.missRatePct();
    a.itlbMissPct = d.itlb.missRatePct();
    a.dtlbMissPct = d.dtlb.missRatePct();
    a.zeroFetchPct =
        pct(static_cast<double>(d.core.zeroFetchCycles), coreCycles);
    a.zeroIssuePct =
        pct(static_cast<double>(d.core.zeroIssueCycles), coreCycles);
    a.maxIssuePct =
        pct(static_cast<double>(d.core.maxIssueCycles), coreCycles);
    a.outstandingImiss = ratio(d.imissIntegral, cycles);
    a.outstandingDmiss = ratio(d.dmissIntegral, cycles);
    a.outstandingL2miss = ratio(d.l2missIntegral, cycles);
    return a;
}

MixRow
mixRow(const MetricsSnapshot &d, bool kernel_class)
{
    const int c = kernel_class ? 1 : 0;
    double total = 0.0;
    for (int k = 0; k < numMixClasses; ++k)
        total += static_cast<double>(d.core.mix[c][k]);
    auto share = [&](MixClass mc) {
        return pct(static_cast<double>(
                       d.core.mix[c][static_cast<int>(mc)]),
                   total);
    };
    MixRow r;
    r.loadPct = share(MixClass::Load);
    r.storePct = share(MixClass::Store);
    r.loadPhysPct =
        pct(static_cast<double>(d.core.physMem[c][0]),
            static_cast<double>(
                d.core.mix[c][static_cast<int>(MixClass::Load)]));
    r.storePhysPct =
        pct(static_cast<double>(d.core.physMem[c][1]),
            static_cast<double>(
                d.core.mix[c][static_cast<int>(MixClass::Store)]));
    const double branches =
        static_cast<double>(
            d.core.mix[c][static_cast<int>(MixClass::CondBranch)] +
            d.core.mix[c][static_cast<int>(MixClass::UncondBranch)] +
            d.core.mix[c][static_cast<int>(MixClass::IndirectJump)] +
            d.core.mix[c][static_cast<int>(MixClass::PalCallReturn)]);
    r.branchPct = pct(branches, total);
    r.condPct = pct(
        static_cast<double>(
            d.core.mix[c][static_cast<int>(MixClass::CondBranch)]),
        branches);
    r.uncondPct = pct(
        static_cast<double>(
            d.core.mix[c][static_cast<int>(MixClass::UncondBranch)]),
        branches);
    r.indirectPct = pct(
        static_cast<double>(
            d.core.mix[c][static_cast<int>(MixClass::IndirectJump)]),
        branches);
    r.palPct = pct(
        static_cast<double>(
            d.core.mix[c][static_cast<int>(MixClass::PalCallReturn)]),
        branches);
    r.condTakenPct =
        pct(static_cast<double>(d.core.condTaken[c]),
            static_cast<double>(d.core.condRetired[c]));
    r.otherIntPct = share(MixClass::OtherInt);
    r.fpPct = share(MixClass::Fp);
    return r;
}

MissBreakdown
missBreakdown(const InterferenceStats &s)
{
    MissBreakdown b;
    const double all_misses = static_cast<double>(s.totalMisses());
    for (int c = 0; c < 2; ++c) {
        b.totalMissRate[c] = s.missRatePct(c == 1);
        for (int k = 0; k < numMissCauses; ++k)
            b.causePct[c][k] =
                pct(static_cast<double>(s.cause[c][k]), all_misses);
    }
    return b;
}

SharingBreakdown
sharingBreakdown(const InterferenceStats &s)
{
    SharingBreakdown b;
    const double all_misses = static_cast<double>(s.totalMisses());
    for (int a = 0; a < 2; ++a)
        for (int f = 0; f < 2; ++f)
            b.avoidedPct[a][f] =
                pct(static_cast<double>(s.avoided[a][f]), all_misses);
    return b;
}

} // namespace smtos
