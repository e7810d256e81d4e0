/**
 * @file
 * Periodic structural invariant auditing.
 *
 * Fault injection is only trustworthy if the simulator can prove it
 * stayed structurally sane while being perturbed. The auditor walks
 * the whole machine every N cycles — every core's pipeline
 * window/conservation accounting and L1 MSHR and store-buffer
 * occupancy bounds (reported with a "core N:" prefix), the uncore's
 * L2 MSHRs, kernel queue and scheduler consistency — and on any
 * violation writes the
 * crash-diagnostics bundle (via the panic crash hook) and aborts with
 * the full report instead of corrupting results silently.
 */

#ifndef SMTOS_FAULT_AUDITOR_H
#define SMTOS_FAULT_AUDITOR_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace smtos {

class System;

/** Every-N-cycles structural checker over one System. */
class InvariantAuditor
{
  public:
    /** Audit @p sys every @p every cycles (0 behaves as 1). */
    InvariantAuditor(System &sys, Cycle every);

    /** Kernel cycle-hook entry: audits when the period elapses and
     *  panics (after the diagnostics hook) on any violation. */
    void maybeCheck(Cycle now);

    /** Next cycle at which maybeCheck will audit (fast-forward
     *  event-horizon input — skips never jump past an audit). */
    Cycle nextCheckAt() const { return nextAt_; }

    /** Run every check immediately. Returns the violation report,
     *  empty when all invariants hold. */
    std::string checkNow() const;

    std::uint64_t checksRun() const { return checks_; }

  private:
    System &sys_;
    Cycle every_;
    Cycle nextAt_;
    std::uint64_t checks_ = 0;
};

} // namespace smtos

#endif // SMTOS_FAULT_AUDITOR_H
