/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * A FaultPlan is the single authority for every injected perturbation:
 * packet loss/latency/reordering and NIC-interrupt suppression on the
 * link, transient cache/TLB corruption surfaced as machine-check
 * traps, and connection-table/listen-queue exhaustion. The plan draws
 * from its own RNG streams (never the workload's), so for a given
 * FaultParams the fault schedule is bit-reproducible and independent
 * of workload randomness; the machine-check schedule is additionally
 * purely time-based, so it does not shift when the workload changes.
 *
 * When no plan is attached — or when a plan with every rate at zero is
 * attached — no fault RNG is ever drawn and no simulation behavior
 * changes: runs are bit-identical to a build without the subsystem.
 * Every injected event is appended to a bounded in-run fault log that
 * the crash-diagnostics bundle and the determinism tests consume.
 */

#ifndef SMTOS_FAULT_FAULT_H
#define SMTOS_FAULT_FAULT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace smtos {

/** Configuration of one run's fault injection (all off by default). */
struct FaultParams
{
    /** Seed of the plan's private RNG streams. */
    std::uint64_t seed = 0xfa171ull;

    // --- link faults (applied per packet, both directions) ---
    double lossPct = 0.0;     ///< drop probability in [0, 1]
    double reorderPct = 0.0;  ///< swap-with-predecessor probability
    Cycle delayMin = 0;       ///< extra link latency lower bound
    Cycle delayMax = 0;       ///< upper bound (0 = no delay faults)
    double nicDropPct = 0.0;  ///< NIC interrupt suppression probability

    // --- transient hardware corruption (machine checks) ---
    /** Mean cycles between machine-check injections (0 = off). */
    Cycle mcePeriod = 0;
    /** Consecutive machine checks a process survives before the
     *  kernel gives up retrying and kills it. */
    int mceRetryLimit = 3;
    /**
     * Test-only: corrupt architectural register state silently
     * instead of raising the machine-check trap, modeling a broken
     * recovery path. The co-simulation oracle must catch this.
     */
    bool mceBreakRecovery = false;

    // --- kernel resource exhaustion ---
    int connTableSize = 0;  ///< override the connection table (0 = default)
    int listenBacklog = 0;  ///< cap the accept queue depth (0 = unbounded)

    // --- structural auditing ---
    Cycle auditEvery = 0;   ///< invariant audit period (0 = off)

    /** True when any injection, override, or audit is configured. */
    bool any() const;

    /** The field list (common/params.h): SMTOS_FAULTS keys, CFG order. */
    template <typename P, typename F>
    static void
    fields(P &p, F &&f)
    {
        f("seed", p.seed);
        f("loss", p.lossPct);
        f("reorder", p.reorderPct);
        f("delay", p.delayMin, p.delayMax); // "a" or "min:max"
        f("nicdrop", p.nicDropPct);
        f("mce", p.mcePeriod);
        f("mceretry", p.mceRetryLimit);
        f("breakrecovery", p.mceBreakRecovery);
        f("conntable", p.connTableSize);
        f("backlog", p.listenBacklog);
        f("audit", p.auditEvery);
    }

    /** Range rules (common/params.h): empty when valid. */
    std::string
    check() const
    {
        if (delayMin > delayMax)
            return "delay min " + std::to_string(delayMin) + " > max " +
                   std::to_string(delayMax);
        return {};
    }
};

/** What one fault-log entry records. */
enum class FaultKind : std::uint8_t
{
    PktLoss = 0,  ///< a = direction (0 to-server), b = client
    PktDelay,     ///< a = direction, b = extra cycles
    PktReorder,   ///< a = direction, b = client
    NicIntrDrop,  ///< a = ring depth at the suppressed interrupt
    MceTlb,       ///< a = context, b = invalidated DTLB index
    MceCache,     ///< a = context, b = invalidated L1D line index
    MceSilent,    ///< broken-recovery corruption; a = context
    MceKill,      ///< a = pid killed after exceeding the retry limit
    SynDrop,      ///< connection table full; a = client
    BacklogDrop,  ///< accept queue full; a = client
};

constexpr int numFaultKinds = static_cast<int>(FaultKind::BacklogDrop) + 1;

/** Stable lower-case name ("pkt_loss", "mce_tlb", ...). */
const char *faultKindName(FaultKind k);

/** One injected fault. */
struct FaultEvent
{
    Cycle cycle = 0;
    FaultKind kind = FaultKind::PktLoss;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/**
 * Fault and robustness counters captured into MetricsSnapshot.
 * Injection counters come from the plan; the backpressure and
 * client-recovery counters come from the kernel and the client
 * population (they count reactions, not injections).
 */
struct FaultCounters
{
    std::uint64_t pktLost = 0;
    std::uint64_t pktDelayed = 0;
    std::uint64_t pktReordered = 0;
    std::uint64_t nicIntrDrops = 0;
    std::uint64_t mceRaised = 0;
    std::uint64_t mceKills = 0;
    std::uint64_t synDrops = 0;
    std::uint64_t backlogDrops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t clientAborts = 0;

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("pkt_lost", s.pktLost...);
        f("pkt_delayed", s.pktDelayed...);
        f("pkt_reordered", s.pktReordered...);
        f("nic_intr_drops", s.nicIntrDrops...);
        f("mce_raised", s.mceRaised...);
        f("mce_kills", s.mceKills...);
        f("syn_drops", s.synDrops...);
        f("backlog_drops", s.backlogDrops...);
        f("retransmits", s.retransmits...);
        f("client_aborts", s.clientAborts...);
    }

    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        fields([&n](const char *, std::uint64_t v) { n += v; }, *this);
        return n;
    }
};

/** One run's fault schedule, decision source, and event log. */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultParams &p);

    const FaultParams &params() const { return p_; }

    /** Any per-packet link fault configured. */
    bool
    linkFaultsOn() const
    {
        return p_.lossPct > 0.0 || p_.reorderPct > 0.0 ||
               p_.delayMax > 0;
    }

    /** Any fault the clients should run their recovery layer for. */
    bool
    recoveryNeeded() const
    {
        return linkFaultsOn() || p_.nicDropPct > 0.0 ||
               p_.connTableSize > 0 || p_.listenBacklog > 0;
    }

    // --- per-packet link draws (link RNG stream) ---
    bool
    drawLoss()
    {
        return p_.lossPct > 0.0 && rngLink_.chance(p_.lossPct);
    }

    Cycle
    drawDelay()
    {
        if (p_.delayMax == 0)
            return 0;
        return static_cast<Cycle>(rngLink_.range(
            static_cast<std::int64_t>(p_.delayMin),
            static_cast<std::int64_t>(p_.delayMax)));
    }

    bool
    drawReorder()
    {
        return p_.reorderPct > 0.0 && rngLink_.chance(p_.reorderPct);
    }

    bool
    drawNicDrop()
    {
        return p_.nicDropPct > 0.0 && rngLink_.chance(p_.nicDropPct);
    }

    // --- machine-check schedule (its own RNG stream, time-based) ---
    bool mceDue(Cycle now) const
    {
        return nextMceAt_ != 0 && now >= nextMceAt_;
    }

    /** Next scheduled machine check (0: none) — for the quiescence
     *  fast-forward event horizon. */
    Cycle nextMceAt() const { return nextMceAt_; }

    /** Consume the due injection: pick a victim selector and schedule
     *  the next machine check. Call exactly once per mceDue(). */
    std::uint64_t takeMce(Cycle now);

    /** Record one injected fault (log + counters). */
    void note(Cycle cycle, FaultKind k, std::uint64_t a = 0,
              std::uint64_t b = 0);

    const std::vector<FaultEvent> &log() const { return log_; }
    std::uint64_t logOverflow() const { return logOverflow_; }

    /** Render the full fault log as text (one line per event). */
    void writeLog(std::ostream &os) const;
    std::string logText() const;

    /** Injection counters only (the kernel merges in the rest). */
    const FaultCounters &injected() const { return c_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    FaultParams p_;
    Rng rngLink_;
    Rng rngMce_;
    Cycle nextMceAt_ = 0;
    std::vector<FaultEvent> log_;
    std::uint64_t logOverflow_ = 0;
    FaultCounters c_;
};

} // namespace smtos

#endif // SMTOS_FAULT_FAULT_H
