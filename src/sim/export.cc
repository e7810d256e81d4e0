#include "sim/export.h"

#include <ostream>
#include <sstream>

namespace smtos {

namespace {

void
jsonInterference(std::ostream &os, const char *name,
                 const InterferenceStats &s)
{
    os << "\"" << name << "\":{";
    os << "\"accesses\":[" << s.accesses[0] << "," << s.accesses[1]
       << "],";
    os << "\"misses\":[" << s.misses[0] << "," << s.misses[1] << "],";
    os << "\"causes\":[[";
    for (int c = 0; c < 2; ++c) {
        for (int k = 0; k < numMissCauses; ++k) {
            os << s.cause[c][k];
            if (k + 1 < numMissCauses)
                os << ",";
        }
        os << (c == 0 ? "],[" : "]],");
    }
    os << "\"avoided\":[[" << s.avoided[0][0] << ","
       << s.avoided[0][1] << "],[" << s.avoided[1][0] << ","
       << s.avoided[1][1] << "]]}";
}

} // namespace

void
writeJsonFields(std::ostream &os, const MetricsSnapshot &d)
{
    const ArchMetrics a = archMetrics(d);
    const ModeShares m = modeShares(d);
    os << "\"cycles\":" << d.core.cycles << ",";
    os << "\"instructions\":" << d.core.totalRetired() << ",";
    os << "\"ipc\":" << a.ipc << ",";
    os << "\"modes\":{\"user\":" << m.userPct
       << ",\"kernel\":" << m.kernelPct << ",\"pal\":" << m.palPct
       << ",\"idle\":" << m.idlePct << "},";
    os << "\"rates\":{\"l1i\":" << a.l1iMissPct
       << ",\"l1d\":" << a.l1dMissPct << ",\"l2\":" << a.l2MissPct
       << ",\"itlb\":" << a.itlbMissPct
       << ",\"dtlb\":" << a.dtlbMissPct
       << ",\"btb\":" << a.btbMissPct
       << ",\"br_mispred\":" << a.branchMispredPct
       << ",\"squashed\":" << a.squashedPct << "},";
    os << "\"fetch\":{\"zero_fetch\":" << a.zeroFetchPct
       << ",\"zero_issue\":" << a.zeroIssuePct
       << ",\"max_issue\":" << a.maxIssuePct
       << ",\"fetchable\":" << a.fetchableContexts << "},";
    os << "\"outstanding\":{\"imiss\":" << a.outstandingImiss
       << ",\"dmiss\":" << a.outstandingDmiss
       << ",\"l2miss\":" << a.outstandingL2miss << "},";
    os << "\"tags\":{";
    bool first = true;
    for (int t = 0; t < NumServiceTags; ++t) {
        if (d.core.retiredByTag[t] == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << serviceTagName(t)
           << "\":" << d.core.retiredByTag[t];
    }
    os << "},";
    jsonInterference(os, "l1i", d.l1i);
    os << ",";
    jsonInterference(os, "l1d", d.l1d);
    os << ",";
    jsonInterference(os, "l2", d.l2);
    os << ",";
    jsonInterference(os, "dtlb", d.dtlb);
    os << ",";
    jsonInterference(os, "btb", d.btb);
    os << ",\"requests_served\":" << d.requestsServed;
    os << ",\"context_switches\":" << d.contextSwitches;
    os << ",\"faults\":{\"pkt_lost\":" << d.faults.pktLost
       << ",\"pkt_delayed\":" << d.faults.pktDelayed
       << ",\"pkt_reordered\":" << d.faults.pktReordered
       << ",\"nic_intr_drops\":" << d.faults.nicIntrDrops
       << ",\"mce_raised\":" << d.faults.mceRaised
       << ",\"mce_kills\":" << d.faults.mceKills
       << ",\"syn_drops\":" << d.faults.synDrops
       << ",\"backlog_drops\":" << d.faults.backlogDrops
       << ",\"retransmits\":" << d.faults.retransmits
       << ",\"client_aborts\":" << d.faults.clientAborts << "}";
    // The dram object exists only for the banked model, so flat-mode
    // exports stay byte-identical to the pre-banked format.
    if (d.dram.banked) {
        auto vec = [&os](const char *name,
                         const std::vector<std::uint64_t> &v) {
            os << ",\"" << name << "\":[";
            for (std::size_t i = 0; i < v.size(); ++i)
                os << (i ? "," : "") << v[i];
            os << "]";
        };
        os << ",\"dram\":{\"accesses\":" << d.dram.accesses
           << ",\"row_hits\":" << d.dram.rowHits
           << ",\"row_empties\":" << d.dram.rowEmpties
           << ",\"row_conflicts\":" << d.dram.rowConflicts
           << ",\"avg_latency\":" << d.dram.avgLatency()
           << ",\"queue_stall_cycles\":" << d.dram.queueStallCycles
           << ",\"queue_full_stalls\":" << d.dram.queueFullStalls
           << ",\"queue_occupancy\":" << d.dram.queueOccupancy;
        vec("ch_accesses", d.dram.chAccesses);
        vec("ch_busy_cycles", d.dram.chBusyCycles);
        vec("bank_row_hits", d.dram.bankRowHits);
        vec("bank_row_conflicts", d.dram.bankRowConflicts);
        os << "}";
    }
    // Client latency quantiles appear once any request completed
    // (Apache runs); SpecInt output is unchanged.
    if (d.latency.count > 0 || d.retriedLatency.count > 0) {
        auto lat = [&os](const char *name, const LatencySummary &l) {
            os << ",\"" << name << "\":{\"count\":" << l.count
               << ",\"mean\":" << l.mean << ",\"p50\":" << l.p50
               << ",\"p95\":" << l.p95 << ",\"p99\":" << l.p99
               << ",\"p999\":" << l.p999 << "}";
        };
        lat("latency", d.latency);
        lat("retried_latency", d.retriedLatency);
    }
    // Request-tracing aggregates appear only when a tracer was
    // attached, so untraced JSON stays byte-identical.
    if (d.reqtrace.enabled) {
        os << ",\"reqtrace\":{\"tracked\":" << d.reqtrace.tracked
           << ",\"completed_clean\":" << d.reqtrace.completedClean
           << ",\"completed_retried\":" << d.reqtrace.completedRetried
           << ",\"completed_irregular\":"
           << d.reqtrace.completedIrregular
           << ",\"aborted\":" << d.reqtrace.aborted
           << ",\"retransmit_annotations\":"
           << d.reqtrace.retransmitAnnotations
           << ",\"drop_annotations\":" << d.reqtrace.dropAnnotations
           << ",\"stage_cycles\":{";
        for (int i = 0; i < numReqStages; ++i)
            os << (i ? "," : "") << "\"" << reqStageName(i)
               << "\":" << d.reqtrace.stageCycles[i];
        os << "},\"queueing_cycles\":" << d.reqtrace.queueingCycles
           << ",\"service_cycles\":" << d.reqtrace.serviceCycles
           << "}";
    }
    // Overload counters appear only when the open-loop generator or
    // an admission policy was engaged, so default JSON stays
    // byte-identical.
    if (d.overload.enabled) {
        os << ",\"overload\":{\"offered_arrivals\":"
           << d.overload.offeredArrivals
           << ",\"arrival_overflows\":" << d.overload.arrivalOverflows
           << ",\"goodput\":" << d.overload.goodput
           << ",\"client_aborts\":" << d.overload.clientAborts
           << ",\"slow_completions\":" << d.overload.slowCompletions
           << ",\"admit_drop_tail\":" << d.overload.admitDropTail
           << ",\"admit_red_drops\":" << d.overload.admitRedDrops
           << ",\"admit_shed\":" << d.overload.admitShed
           << ",\"mbuf_exhausted\":" << d.overload.mbufExhausted
           << ",\"mbuf_tx_wraps\":" << d.overload.mbufTxWraps << "}";
    }
    // Fidelity counters appear only when the functional engine
    // actually retired instructions or ticked cycles (not on mere
    // no-op switches), so detailed-only JSON stays byte-identical.
    if (d.fidelity.enabled()) {
        os << ",\"fidelity\":{\"functional_instructions\":"
           << d.fidelity.funcInstrs
           << ",\"functional_cycles\":" << d.fidelity.funcCycles
           << ",\"switches\":" << d.fidelity.switches << "}";
    }
    // Multicore export: a per-core-indexed array of the private-
    // structure counters plus machine-level SMP aggregates (locks,
    // stealing, shootdowns, coherence). On one core both would only
    // repeat the top-level counters and zeros, so the one-core JSON
    // keeps the paper machine's key set.
    if (d.cores.size() > 1) {
        os << ",\"cores\":[";
        for (std::size_t c = 0; c < d.cores.size(); ++c) {
            const CoreSlice &s = d.cores[c];
            os << (c ? "," : "") << "{\"cycles\":" << s.core.cycles
               << ",\"instructions\":" << s.core.totalRetired()
               << ",\"ipc\":" << s.core.ipc()
               << ",\"retired\":[" << s.core.retired[0];
            for (int m = 1; m < numModes; ++m)
                os << "," << s.core.retired[m];
            os << "],\"lock_spin_cycles\":" << s.lockSpinCycles << ",";
            jsonInterference(os, "l1i", s.l1i);
            os << ",";
            jsonInterference(os, "l1d", s.l1d);
            os << ",";
            jsonInterference(os, "dtlb", s.dtlb);
            os << "}";
        }
        os << "]";
        auto lock = [&os](const char *name, const LockStats &l) {
            os << ",\"" << name
               << "\":{\"acquisitions\":" << l.acquisitions
               << ",\"contended\":" << l.contended
               << ",\"spin_cycles\":" << l.spinCycles
               << ",\"hold_cycles\":" << l.holdCycles << "}";
        };
        os << ",\"smp\":{\"work_steals\":" << d.smp.workSteals
           << ",\"shootdown_ipis\":" << d.smp.shootdownIpis
           << ",\"shootdowns_delivered\":"
           << d.smp.shootdownsDelivered;
        lock("conn_lock", d.smp.connLock);
        lock("mbuf_lock", d.smp.mbufLock);
        lock("sched_lock", d.smp.schedLock);
        os << ",\"coherence\":{\"snoop_probes\":"
           << d.smp.coherence.snoopProbes
           << ",\"invalidations\":" << d.smp.coherence.invalidations
           << ",\"downgrades\":" << d.smp.coherence.downgrades
           << ",\"intervention_writebacks\":"
           << d.smp.coherence.interventionWritebacks
           << ",\"upgrades\":" << d.smp.coherence.upgrades << "}}";
    }
}

void
writeJson(std::ostream &os, const MetricsSnapshot &d)
{
    os << "{";
    writeJsonFields(os, d);
    os << "}";
}

std::string
toJson(const MetricsSnapshot &d)
{
    std::ostringstream os;
    writeJson(os, d);
    return os.str();
}

void
writeCsvRow(std::ostream &os, const std::string &label,
            const MetricsSnapshot &d, bool with_header)
{
    if (with_header) {
        os << "label,cycles,instructions,ipc,user_pct,kernel_pct,"
              "pal_pct,idle_pct,l1i_miss,l1d_miss,l2_miss,itlb_miss,"
              "dtlb_miss,br_mispred,squashed_pct\n";
    }
    const ArchMetrics a = archMetrics(d);
    const ModeShares m = modeShares(d);
    os << label << "," << d.core.cycles << ","
       << d.core.totalRetired() << "," << a.ipc << "," << m.userPct
       << "," << m.kernelPct << "," << m.palPct << "," << m.idlePct
       << "," << a.l1iMissPct << "," << a.l1dMissPct << ","
       << a.l2MissPct << "," << a.itlbMissPct << ","
       << a.dtlbMissPct << "," << a.branchMispredPct << ","
       << a.squashedPct << "\n";
}

} // namespace smtos
