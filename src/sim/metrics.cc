#include "sim/metrics.h"

#include <algorithm>

#include "common/stats.h"
#include "kernel/kernel.h"
#include "kernel/tags.h"
#include "obs/probes.h"

namespace smtos {

namespace {

InterferenceStats
diffInterference(const InterferenceStats &a, const InterferenceStats &b)
{
    InterferenceStats d;
    for (int c = 0; c < 2; ++c) {
        d.accesses[c] = a.accesses[c] - b.accesses[c];
        d.misses[c] = a.misses[c] - b.misses[c];
        for (int k = 0; k < numMissCauses; ++k)
            d.cause[c][k] = a.cause[c][k] - b.cause[c][k];
        for (int f = 0; f < 2; ++f)
            d.avoided[c][f] = a.avoided[c][f] - b.avoided[c][f];
    }
    return d;
}

std::map<std::string, std::uint64_t>
diffMap(const std::map<std::string, std::uint64_t> &a,
        const std::map<std::string, std::uint64_t> &b)
{
    std::map<std::string, std::uint64_t> d = a;
    for (const auto &kv : b) {
        auto it = d.find(kv.first);
        if (it != d.end())
            it->second -= kv.second;
    }
    return d;
}

/** Counter-wise CoreStats difference (kernelEntries keeps the later
 *  capture's absolute values, the historical behavior). */
CoreStats
diffCore(const CoreStats &a, const CoreStats &b)
{
    CoreStats d = a;
    d.cycles = a.cycles - b.cycles;
    d.fetched = a.fetched - b.fetched;
    d.fetchedWrongPath = a.fetchedWrongPath - b.fetchedWrongPath;
    d.squashed = a.squashed - b.squashed;
    d.issued = a.issued - b.issued;
    for (int m = 0; m < numModes; ++m)
        d.retired[m] = a.retired[m] - b.retired[m];
    for (int t = 0; t < 64; ++t)
        d.retiredByTag[t] = a.retiredByTag[t] - b.retiredByTag[t];
    for (int c = 0; c < 2; ++c) {
        for (int k = 0; k < numMixClasses; ++k)
            d.mix[c][k] = a.mix[c][k] - b.mix[c][k];
        for (int k = 0; k < 2; ++k)
            d.physMem[c][k] = a.physMem[c][k] - b.physMem[c][k];
        d.condRetired[c] = a.condRetired[c] - b.condRetired[c];
        d.condTaken[c] = a.condTaken[c] - b.condTaken[c];
        d.condMispred[c] = a.condMispred[c] - b.condMispred[c];
        d.targetMispred[c] = a.targetMispred[c] - b.targetMispred[c];
    }
    d.zeroFetchCycles = a.zeroFetchCycles - b.zeroFetchCycles;
    d.zeroIssueCycles = a.zeroIssueCycles - b.zeroIssueCycles;
    d.maxIssueCycles = a.maxIssueCycles - b.maxIssueCycles;
    d.fetchableContexts = Sampler::fromSumCount(
        a.fetchableContexts.sum() - b.fetchableContexts.sum(),
        a.fetchableContexts.count() - b.fetchableContexts.count());
    return d;
}

/** Sum @p s into @p into for the machine-level aggregate. The chip
 *  runs in lockstep, so cycles takes the max instead of summing. */
void
addCore(CoreStats &into, const CoreStats &s)
{
    into.cycles = std::max(into.cycles, s.cycles);
    into.fetched += s.fetched;
    into.fetchedWrongPath += s.fetchedWrongPath;
    into.squashed += s.squashed;
    into.issued += s.issued;
    for (int m = 0; m < numModes; ++m)
        into.retired[m] += s.retired[m];
    for (int t = 0; t < 64; ++t)
        into.retiredByTag[t] += s.retiredByTag[t];
    for (int c = 0; c < 2; ++c) {
        for (int k = 0; k < numMixClasses; ++k)
            into.mix[c][k] += s.mix[c][k];
        for (int k = 0; k < 2; ++k)
            into.physMem[c][k] += s.physMem[c][k];
        into.condRetired[c] += s.condRetired[c];
        into.condTaken[c] += s.condTaken[c];
        into.condMispred[c] += s.condMispred[c];
        into.targetMispred[c] += s.targetMispred[c];
    }
    into.zeroFetchCycles += s.zeroFetchCycles;
    into.zeroIssueCycles += s.zeroIssueCycles;
    into.maxIssueCycles += s.maxIssueCycles;
    into.fetchableContexts = Sampler::fromSumCount(
        into.fetchableContexts.sum() + s.fetchableContexts.sum(),
        into.fetchableContexts.count() + s.fetchableContexts.count());
    for (const auto &kv : s.kernelEntries.all())
        into.kernelEntries.add(kv.first, kv.second);
}

void
addInterference(InterferenceStats &into, const InterferenceStats &s)
{
    for (int c = 0; c < 2; ++c) {
        into.accesses[c] += s.accesses[c];
        into.misses[c] += s.misses[c];
        for (int k = 0; k < numMissCauses; ++k)
            into.cause[c][k] += s.cause[c][k];
        for (int f = 0; f < 2; ++f)
            into.avoided[c][f] += s.avoided[c][f];
    }
}

LockStats
lockStatsOf(const KLock &l)
{
    LockStats s;
    s.acquisitions = l.acquisitions;
    s.contended = l.contended;
    s.spinCycles = l.spinCycles;
    s.holdCycles = l.holdCycles;
    return s;
}

} // namespace

LockStats
LockStats::delta(const LockStats &e) const
{
    LockStats d;
    d.acquisitions = acquisitions - e.acquisitions;
    d.contended = contended - e.contended;
    d.spinCycles = spinCycles - e.spinCycles;
    d.holdCycles = holdCycles - e.holdCycles;
    return d;
}

SmpStats
SmpStats::delta(const SmpStats &e) const
{
    SmpStats d = *this;
    d.connLock = connLock.delta(e.connLock);
    d.mbufLock = mbufLock.delta(e.mbufLock);
    d.schedLock = schedLock.delta(e.schedLock);
    d.workSteals = workSteals - e.workSteals;
    d.shootdownIpis = shootdownIpis - e.shootdownIpis;
    d.shootdownsDelivered =
        shootdownsDelivered - e.shootdownsDelivered;
    d.coherence = coherence.delta(e.coherence);
    return d;
}

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
        addCore(s.core, slice.core);
        addInterference(s.btb, slice.btb);
        addInterference(s.l1i, slice.l1i);
        addInterference(s.l1d, slice.l1d);
        addInterference(s.itlb, slice.itlb);
        addInterference(s.dtlb, slice.dtlb);
        s.btbWrongTarget += slice.btbWrongTarget;
        s.imissIntegral += h.imissIntegral();
        s.dmissIntegral += h.dmissIntegral();
        s.fidelity.funcInstrs += p.funcInstrs();
        s.fidelity.funcCycles += p.funcCycles();
        s.fidelity.switches += p.fidelitySwitches();
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

    s.smp.connLock = lockStatsOf(k.connLock());
    s.smp.mbufLock = lockStatsOf(k.mbufLock());
    for (const KLock &sl : k.schedLocks()) {
        const LockStats ls = lockStatsOf(sl);
        s.smp.schedLock.acquisitions += ls.acquisitions;
        s.smp.schedLock.contended += ls.contended;
        s.smp.schedLock.spinCycles += ls.spinCycles;
        s.smp.schedLock.holdCycles += ls.holdCycles;
    }
    s.smp.workSteals = k.workSteals();
    s.smp.shootdownIpis = k.shootdownIpis();
    s.smp.shootdownsDelivered = k.shootdownsDelivered();
    s.smp.coherence = u.coherence().stats();
    return s;
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &e) const
{
    MetricsSnapshot d = *this;

    d.core = diffCore(core, e.core);
    d.btb = diffInterference(btb, e.btb);
    d.btbWrongTarget = btbWrongTarget - e.btbWrongTarget;
    d.l1i = diffInterference(l1i, e.l1i);
    d.l1d = diffInterference(l1d, e.l1d);
    d.l2 = diffInterference(l2, e.l2);
    d.itlb = diffInterference(itlb, e.itlb);
    d.dtlb = diffInterference(dtlb, e.dtlb);
    d.imissIntegral = imissIntegral - e.imissIntegral;
    d.dmissIntegral = dmissIntegral - e.dmissIntegral;
    d.l2missIntegral = l2missIntegral - e.l2missIntegral;
    d.mmEntries = diffMap(mmEntries, e.mmEntries);
    d.syscalls = diffMap(syscalls, e.syscalls);
    d.requestsServed = requestsServed - e.requestsServed;
    d.contextSwitches = contextSwitches - e.contextSwitches;
    d.faults = faults.delta(e.faults);
    d.dram = dram.delta(e.dram);
    d.latency.count = latency.count - e.latency.count;
    d.retriedLatency.count =
        retriedLatency.count - e.retriedLatency.count;
    d.reqtrace = reqtrace.delta(e.reqtrace);
    d.overload = overload.delta(e.overload);
    d.fidelity.funcInstrs = fidelity.funcInstrs - e.fidelity.funcInstrs;
    d.fidelity.funcCycles = fidelity.funcCycles - e.fidelity.funcCycles;
    d.fidelity.switches = fidelity.switches - e.fidelity.switches;
    if (cores.size() == e.cores.size()) {
        for (std::size_t c = 0; c < cores.size(); ++c) {
            CoreSlice &ds = d.cores[c];
            const CoreSlice &es = e.cores[c];
            ds.core = diffCore(cores[c].core, es.core);
            ds.btb = diffInterference(cores[c].btb, es.btb);
            ds.l1i = diffInterference(cores[c].l1i, es.l1i);
            ds.l1d = diffInterference(cores[c].l1d, es.l1d);
            ds.itlb = diffInterference(cores[c].itlb, es.itlb);
            ds.dtlb = diffInterference(cores[c].dtlb, es.dtlb);
            ds.btbWrongTarget =
                cores[c].btbWrongTarget - es.btbWrongTarget;
            ds.lockSpinCycles =
                cores[c].lockSpinCycles - es.lockSpinCycles;
        }
    }
    d.smp = smp.delta(e.smp);
    return d;
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
    a.ipc = ratio(static_cast<double>(d.core.totalRetired()), cycles);
    a.fetchableContexts = d.core.fetchableContexts.mean();
    a.branchMispredPct =
        pct(static_cast<double>(d.core.condMispred[0] +
                                d.core.condMispred[1]),
            static_cast<double>(d.core.condRetired[0] +
                                d.core.condRetired[1]));
    a.squashedPct = pct(static_cast<double>(d.core.squashed),
                        static_cast<double>(d.core.fetched));
    auto rate = [](const InterferenceStats &s) {
        return pct(static_cast<double>(s.totalMisses()),
                   static_cast<double>(s.totalAccesses()));
    };
    a.btbMissPct = rate(d.btb);
    a.l1iMissPct = rate(d.l1i);
    a.l1dMissPct = rate(d.l1d);
    a.l2MissPct = rate(d.l2);
    a.itlbMissPct = rate(d.itlb);
    a.dtlbMissPct = rate(d.dtlb);
    a.zeroFetchPct =
        pct(static_cast<double>(d.core.zeroFetchCycles), cycles);
    a.zeroIssuePct =
        pct(static_cast<double>(d.core.zeroIssueCycles), cycles);
    a.maxIssuePct =
        pct(static_cast<double>(d.core.maxIssueCycles), cycles);
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
        b.totalMissRate[c] =
            pct(static_cast<double>(s.misses[c]),
                static_cast<double>(s.accesses[c]));
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
