/**
 * @file
 * Banked DRAM behind an FR-FCFS memory controller.
 *
 * The controller sits where the flat Dram used to: Hierarchy calls
 * access() once per line fill leaving the L2 MSHRs, and receives the
 * completion cycle. When DramParams::banked is false every access
 * forwards to the flat fixed-latency Dram, bit-identically to the
 * pre-banked model. When banked, the controller models:
 *
 *  - channels x ranks x banksPerRank banks, each with a row buffer
 *    (rowBytes wide). Addresses interleave line-granular across
 *    channels first, then banks, so streams spread over the machine.
 *  - open- vs closed-page policy: open keeps the row latched (hits
 *    pay tCAS only, conflicts pay tRP+tRCD+tCAS), closed auto-
 *    precharges after every column (every access pays tRCD+tCAS but
 *    never a conflict).
 *  - FR-FCFS scheduling in latency-composition form: each channel
 *    keeps its reserved data-bus intervals, and a newly arriving
 *    request claims the earliest gap its bank timing allows. Row hits
 *    become data-ready early and therefore overtake queued row
 *    misses/conflicts — first-ready, first-come-first-served —
 *    without an event queue, in the same style as mem::Bus.
 *  - a bounded per-channel request queue: when queueDepth requests
 *    are in flight the arrival stalls until the oldest completes
 *    (backpressure into the L2 miss path).
 *  - tFAW-style activate throttling: at most four row activates per
 *    rank per tFAW window.
 *
 * All state advances only inside access(), so the model is
 * deterministic, identical under the host fast path, and snapshots
 * as plain data (its snap() field list is in snap/state.cc).
 */

#ifndef SMTOS_MEM_MEMCTRL_H
#define SMTOS_MEM_MEMCTRL_H

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "common/types.h"
#include "mem/dram.h"
#include "mem/missclass.h"

namespace smtos {

class Probes;

/** Geometry, policy, and timing of the banked DRAM model. */
struct DramParams
{
    /** false: flat fixed-latency DRAM (the Table-1 default). */
    bool banked = false;

    int channels = 2;
    int ranks = 2;
    int banksPerRank = 8;
    /** Row-buffer width per bank. */
    int rowBytes = 2048;
    /** Transfer granule; one L2 line per request. */
    int burstBytes = 64;
    /** Bounded in-flight requests per channel (backpressure). */
    int queueDepth = 16;
    /** true: auto-precharge after every column (closed-page). */
    bool closedPage = false;

    /**
     * Timing minimums in CPU cycles, sized so a row conflict
     * (tRP+tRCD+tCAS) lands at the flat model's 90 cycles: hits pay
     * 30, empty-bank activates 60, conflicts 90 (plus the burst).
     */
    Cycle tRcd = 30; ///< activate -> column command
    Cycle tRp = 30;  ///< precharge
    Cycle tCas = 26; ///< column command -> data
    Cycle tBurst = 4; ///< data-bus occupancy per burst
    Cycle tFaw = 60; ///< four-activate window per rank

    int totalBanks() const { return channels * ranks * banksPerRank; }
};

/** Row-buffer outcome of one banked access. */
enum class DramRowOutcome : std::uint8_t
{
    Hit = 0,   ///< open row matched: tCAS only
    Empty,     ///< bank precharged: tRCD+tCAS
    Conflict,  ///< wrong row open: tRP+tRCD+tCAS
};

/** Counters exported into MetricsSnapshot (all monotone). */
struct DramStats
{
    bool banked = false;
    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowEmpties = 0;
    std::uint64_t rowConflicts = 0;
    /** Sum of (completion - arrival) over all accesses. */
    std::uint64_t latencyCycles = 0;
    /** Cycles arrivals waited for a queue slot, and how often. */
    std::uint64_t queueStallCycles = 0;
    std::uint64_t queueFullStalls = 0;
    /** Queue occupancy summed per access (avg = /accesses). */
    std::uint64_t queueOccupancy = 0;
    std::vector<std::uint64_t> chAccesses;
    std::vector<std::uint64_t> chBusyCycles;
    std::vector<std::uint64_t> bankRowHits;
    std::vector<std::uint64_t> bankRowConflicts;

    double avgLatency() const { return ratio(latencyCycles, accesses); }

    /** The field list (common/counters.h), in UNCR snapshot order. */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("accesses", s.accesses...);
        f("row_hits", s.rowHits...);
        f("row_empties", s.rowEmpties...);
        f("row_conflicts", s.rowConflicts...);
        f("avg_latency", Per{s.latencyCycles, s.accesses}...);
        f("queue_stall_cycles", s.queueStallCycles...);
        f("queue_full_stalls", s.queueFullStalls...);
        f("queue_occupancy", s.queueOccupancy...);
        f("ch_accesses", s.chAccesses...);
        f("ch_busy_cycles", s.chBusyCycles...);
        f("bank_row_hits", s.bankRowHits...);
        f("bank_row_conflicts", s.bankRowConflicts...);
    }
};

/** The memory controller: flat Dram or the banked model. */
class MemCtrl
{
  public:
    explicit MemCtrl(const DramParams &params);

    /**
     * One line fill leaving the L2 MSHRs at cycle @p now.
     * @return completion cycle of the data burst.
     */
    Cycle access(Addr paddr, const AccessInfo &who, Cycle now);

    bool banked() const { return params_.banked; }
    const DramParams &params() const { return params_; }

    /** The flat model (live counter in flat mode). */
    Dram &flat() { return flat_; }
    const Dram &flat() const { return flat_; }

    /** Attach (or detach, with nullptr) the observability hub. */
    void setProbes(Probes *p) { probes_ = p; }

    /** Snapshot of the counters (banked flag included). */
    DramStats stats() const;

    // Address decomposition, exposed for tests and benches.
    int channelOf(Addr paddr) const;
    /** Global bank id in [0, totalBanks). */
    int bankOf(Addr paddr) const;
    std::int64_t rowOf(Addr paddr) const;

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Bank
    {
        std::int64_t openRow = -1; ///< -1: precharged
        /** Earliest cycle a precharge/activate may start. */
        Cycle readyAt = 0;
        /** Earliest cycle the next column command may issue. */
        Cycle nextColAt = 0;
    };

    struct RankWindow
    {
        Cycle act[4] = {0, 0, 0, 0}; ///< last four activate times
        std::int32_t pos = 0;        ///< oldest slot
        std::int32_t count = 0;      ///< valid entries (gate at 4)
    };

    struct Interval
    {
        Cycle start = 0;
        Cycle end = 0;
    };

    struct Channel
    {
        /** Reserved data-bus bursts, sorted by start, disjoint. */
        std::vector<Interval> busy;
        /** Completion times of in-flight requests (queue model). */
        std::vector<Cycle> inflight;
    };

    /** Drop retired work; every entry with finish <= @p now. */
    static void purge(Channel &c, Cycle now);

    /** Earliest burst start >= @p from on @p c's data bus. */
    Cycle claimBus(Channel &c, Cycle from);

    int rankIdOf(Addr paddr) const;

    DramParams params_;
    Dram flat_;
    Probes *probes_ = nullptr;

    std::vector<Bank> banks_;
    std::vector<RankWindow> rankWin_;
    std::vector<Channel> channels_;

    /** The banked model's counters (all zero when flat). */
    DramStats stats_;
};

} // namespace smtos

#endif // SMTOS_MEM_MEMCTRL_H
