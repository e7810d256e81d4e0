/**
 * @file
 * Snoopy MESI coherence over the chip's shared L2 bus seam.
 *
 * Each core's private L1s are kept coherent by a central hub that
 * snoops the other cores on every store (hit or miss) and every L1
 * read miss. MESI states are carried implicitly by the existing tag
 * model: Modified = resident + dirty, Shared/Exclusive = resident +
 * clean (a store to an Exclusive line — no remote copy — upgrades
 * silently at zero cost, exactly MESI's E->M; a store that finds
 * remote clean copies pays the S->M upgrade broadcast). No per-line
 * state byte is added to the Cache model. On a one-core chip every
 * snoop finds no remote core, so the hub adds no latency and counts
 * nothing.
 *
 * Latencies are closed-form constants so the protocol is unit-testable
 * (tests/test_smp): an upgrade (invalidate remote clean sharers) adds
 * upgradeLatency; an intervention (remote Modified copy must be
 * written back before the requestor proceeds) adds
 * interventionLatency. Coherence traffic is counted at the hub only —
 * snoops never touch the per-cache interference statistics.
 */

#ifndef SMTOS_MEM_COHERENCE_H
#define SMTOS_MEM_COHERENCE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtos {

class Hierarchy;

/** Chip-wide coherence traffic counters. */
struct CoherenceStats
{
    std::uint64_t snoopProbes = 0;      ///< remote-core probes issued
    std::uint64_t invalidations = 0;    ///< remote copies invalidated
    std::uint64_t downgrades = 0;       ///< remote M copies demoted to S
    std::uint64_t interventionWritebacks = 0; ///< dirty data supplied
    std::uint64_t upgrades = 0;         ///< S->M broadcasts (clean sharers)

    bool any() const
    {
        bool seen = false;
        fields([&seen](const char *, std::uint64_t v) { seen |= v != 0; },
               *this);
        return seen;
    }

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("snoop_probes", s.snoopProbes...);
        f("invalidations", s.invalidations...);
        f("downgrades", s.downgrades...);
        f("intervention_writebacks", s.interventionWritebacks...);
        f("upgrades", s.upgrades...);
    }
};

/** The snoop hub. One per chip (in the Uncore); every core's
 *  Hierarchy attaches to it. */
class CoherenceHub
{
  public:
    /** Extra cycles to invalidate remote clean sharers (S->M). */
    static constexpr Cycle upgradeLatency = 4;
    /** Extra cycles when a remote Modified copy intervenes (its
     *  writeback to the shared L2 is on the critical path). */
    static constexpr Cycle interventionLatency = 16;

    /** Register a core's hierarchy; returns its core id (the
     *  attachment order). */
    int
    attach(Hierarchy *h)
    {
        cores_.push_back(h);
        return numCores() - 1;
    }
    int numCores() const { return static_cast<int>(cores_.size()); }

    /**
     * Core @p who stores to @p paddr (L1D hit or write-validate
     * fill). Invalidates every remote L1 copy; returns the extra
     * latency on the store's completion path (0 when the line was
     * Exclusive/Modified here — no remote copies).
     */
    Cycle onWrite(int who, Addr paddr);

    /**
     * Core @p who read-misses @p paddr (L1I or L1D). A remote
     * Modified copy is downgraded to Shared and its writeback charged
     * on the fill path; clean remote copies simply share.
     */
    Cycle onReadMiss(int who, Addr paddr);

    /** DMA write: invalidate the stale copy in every core's L1D. */
    void dmaInvalidate(Addr paddr);

    const CoherenceStats &stats() const { return stats_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::vector<Hierarchy *> cores_;
    CoherenceStats stats_;
};

} // namespace smtos

#endif // SMTOS_MEM_COHERENCE_H
