/**
 * @file
 * Metrics: snapshots and derived statistics matching every table and
 * figure in the paper's evaluation. Benches capture a snapshot, run a
 * measurement interval, capture again, and compute on the delta.
 */

#ifndef SMTOS_SIM_METRICS_H
#define SMTOS_SIM_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "core/context.h"
#include "fault/fault.h"
#include "kernel/admission.h"
#include "kernel/tags.h"
#include "mem/coherence.h"
#include "mem/memctrl.h"
#include "mem/missclass.h"
#include "obs/reqtrace.h"
#include "sim/system.h"

namespace smtos {

class Histogram;

/**
 * Point-in-time histogram summary (client latency quantiles). The
 * quantiles are positional, not counters: a delta subtracts the
 * counts but keeps the later capture's quantiles, which over a
 * measurement interval approximate the interval's own tail well when
 * the interval dominates the sample count.
 */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;

    static LatencySummary of(const Histogram &h);

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("count", s.count...);
        f("mean", Level{s.mean}...);
        f("p50", Level{s.p50}...);
        f("p95", Level{s.p95}...);
        f("p99", Level{s.p99}...);
        f("p999", Level{s.p999}...);
    }
};

/** SMP machine-level counters (all zero on a one-core chip). */
struct SmpStats
{
    LockStats connLock;
    LockStats mbufLock;
    LockStats schedLock; ///< summed over the per-core run-queue locks
    std::uint64_t workSteals = 0;
    std::uint64_t shootdownIpis = 0;
    std::uint64_t shootdownsDelivered = 0;
    CoherenceStats coherence;

    /** The field list (common/counters.h), in export order. */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("work_steals", s.workSteals...);
        f("shootdown_ipis", s.shootdownIpis...);
        f("shootdowns_delivered", s.shootdownsDelivered...);
        f("conn_lock", s.connLock...);
        f("mbuf_lock", s.mbufLock...);
        f("sched_lock", s.schedLock...);
        f("coherence", s.coherence...);
    }
};

/** One core's slice of a capture (private structures only; the
 *  shared L2/DRAM stay machine-level). */
struct CoreSlice
{
    CoreStats core;
    InterferenceStats btb, l1i, l1d, itlb, dtlb;
    std::uint64_t btbWrongTarget = 0;
    /** Kernel lock-spin cycles burned by contexts on this core. */
    std::uint64_t lockSpinCycles = 0;

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("core", s.core...);
        f("btb", s.btb...);
        f("l1i", s.l1i...);
        f("l1d", s.l1d...);
        f("itlb", s.itlb...);
        f("dtlb", s.dtlb...);
        f("btb_wrong_target", s.btbWrongTarget...);
        f("lock_spin_cycles", s.lockSpinCycles...);
    }
};

/**
 * Point-in-time copy of every counter the paper's tables need.
 *
 * The top-level core/btb/L1/TLB fields are the machine-level
 * aggregates of the per-core slices in @c cores (counters summed
 * across cores; cycles is the chip cycle, not the sum). On the
 * one-core chip the aggregate is that core's own counters.
 */
struct MetricsSnapshot
{
    CoreStats core;
    InterferenceStats btb, l1i, l1d, l2, itlb, dtlb;
    std::uint64_t btbWrongTarget = 0;
    double imissIntegral = 0.0;
    double dmissIntegral = 0.0;
    double l2missIntegral = 0.0;
    std::map<std::string, std::uint64_t> mmEntries;
    std::map<std::string, std::uint64_t> syscalls;
    std::uint64_t requestsServed = 0;
    std::uint64_t contextSwitches = 0;
    FaultCounters faults;
    DramStats dram;
    /** Client-observed request latency (Apache runs; else empty). */
    LatencySummary latency;
    LatencySummary retriedLatency;
    /** Request-tracing aggregates (reqtrace.enabled marks a tracer
     *  was attached when captured). */
    ReqTraceStats reqtrace;
    /** Overload counters (overload.enabled marks the open-loop
     *  generator or an admission policy was engaged). */
    OverloadStats overload;
    /** Functional-fidelity counters (enabled() marks the functional
     *  engine actually ran; exports stay byte-identical otherwise). */
    FidelityStats fidelity;
    /** Per-core slices, in core order. */
    std::vector<CoreSlice> cores;
    /** SMP counters (locks, stealing, shootdowns, coherence). */
    SmpStats smp;

    static MetricsSnapshot capture(System &sys);

    /** Counter-wise difference (this minus @p earlier). */
    MetricsSnapshot delta(const MetricsSnapshot &earlier) const;

    /** The field list (common/counters.h), in export order after the
     *  derived top-level keys (sim/export.cc). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("l1i", s.l1i...);
        f("l1d", s.l1d...);
        f("l2", s.l2...);
        f("dtlb", s.dtlb...);
        f("btb", s.btb...);
        f("requests_served", s.requestsServed...);
        f("context_switches", s.contextSwitches...);
        f("faults", s.faults...);
        f("dram", s.dram...);
        f("latency", s.latency...);
        f("retried_latency", s.retriedLatency...);
        f("reqtrace", s.reqtrace...);
        f("overload", s.overload...);
        f("fidelity", s.fidelity...);
        f("cores", s.cores...);
        f("smp", s.smp...);
        f(nullptr, s.core...);
        f(nullptr, s.itlb...);
        f(nullptr, s.btbWrongTarget...);
        f(nullptr, s.imissIntegral...);
        f(nullptr, s.dmissIntegral...);
        f(nullptr, s.l2missIntegral...);
        f(nullptr, s.mmEntries...);
        f(nullptr, s.syscalls...);
    }
};

/** Execution-cycle shares by mode (Figures 1 and 5 series). */
struct ModeShares
{
    double userPct = 0;
    double kernelPct = 0; ///< kernel proper (excluding PAL)
    double palPct = 0;
    double idlePct = 0;
};

ModeShares modeShares(const MetricsSnapshot &d);

/** Kernel share attributed to each service tag, as % of all
 *  retired instructions (Figures 2, 4, 6, 7). */
double tagSharePct(const MetricsSnapshot &d, int tag);

/** Kernel share by Figure-2/6 group. */
double groupSharePct(const MetricsSnapshot &d, ServiceGroup g);

/** One column of Tables 4 and 6. */
struct ArchMetrics
{
    double ipc = 0;
    double fetchableContexts = 0;
    double branchMispredPct = 0;   ///< conditional direction mispredicts
    double squashedPct = 0;        ///< % of fetched instructions
    double btbMissPct = 0;
    double l1iMissPct = 0;
    double l1dMissPct = 0;
    double l2MissPct = 0;
    double itlbMissPct = 0;
    double dtlbMissPct = 0;
    double zeroFetchPct = 0;
    double zeroIssuePct = 0;
    double maxIssuePct = 0;
    double outstandingImiss = 0;
    double outstandingDmiss = 0;
    double outstandingL2miss = 0;
};

ArchMetrics archMetrics(const MetricsSnapshot &d);

/** Mix-table row values for one privilege class (Tables 2 and 5). */
struct MixRow
{
    double loadPct = 0, loadPhysPct = 0;
    double storePct = 0, storePhysPct = 0;
    double branchPct = 0;
    double condPct = 0, condTakenPct = 0;
    double uncondPct = 0;
    double indirectPct = 0;
    double palPct = 0;
    double otherIntPct = 0;
    double fpPct = 0;
};

/** @param kernel_class false = user, true = kernel+PAL */
MixRow mixRow(const MetricsSnapshot &d, bool kernel_class);

/** Conflict-cause percentages for one structure (Tables 3 and 7):
 *  cause[cls][MissCause] as % of all misses; columns sum to 100. */
struct MissBreakdown
{
    double totalMissRate[2] = {0, 0}; ///< per-class miss rate %
    double causePct[2][numMissCauses] = {{0}, {0}};
};

MissBreakdown missBreakdown(const InterferenceStats &s);

/** Avoided-miss percentages (Table 8): [accessor][filler] as % of all
 *  misses in the structure. */
struct SharingBreakdown
{
    double avoidedPct[2][2] = {{0, 0}, {0, 0}};
};

SharingBreakdown sharingBreakdown(const InterferenceStats &s);

} // namespace smtos

#endif // SMTOS_SIM_METRICS_H
