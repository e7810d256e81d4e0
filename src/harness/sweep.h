/**
 * @file
 * Snapshot-once, sweep-many: the fork-based sweep engine.
 *
 * A sweep group runs the (expensive, config-independent) start-up
 * phase exactly once on a base Session, snapshots it, and fans the
 * measurement points out over the parallel runner — every point
 * resumes its own private machine from the shared artifact and runs
 * only its measurement phase. Points vary anything ResumeOptions can
 * express: phase lengths, observability sinks, co-simulation, and the
 * policy-only knobs (fetch policy, scheduler affinity, TLB-IPR
 * sharing, DRAM row-buffer policy).
 *
 * Anything structural (topology — core count and contexts per core —
 * workload, fault plan, seed) needs its own group: group keys are
 * exactly "what start-up state can be shared". Results come back in point order, bit-identical to
 * running each point's start-up from scratch under the base config.
 */

#ifndef SMTOS_HARNESS_SWEEP_H
#define SMTOS_HARNESS_SWEEP_H

#include <string>
#include <vector>

#include "harness/session.h"

namespace smtos {

/** One measurement point resumed from the group's shared snapshot. */
struct SweepPoint
{
    std::string label;
    Session::ResumeOptions opts;
};

/** One start-up phase shared by many measurement points. */
struct SweepGroup
{
    Session::Config base;
    std::vector<SweepPoint> points;
};

/**
 * Run one group: startup once, snapshot, resume every point in
 * parallel (jobs as in parallelFor). Returns measurement results in
 * point order.
 */
std::vector<RunResult> runSweep(const SweepGroup &group,
                                unsigned jobs = 0);

/** Run several groups back to back; results in group, point order. */
std::vector<std::vector<RunResult>>
runSweepGroups(const std::vector<SweepGroup> &groups, unsigned jobs = 0);

} // namespace smtos

#endif // SMTOS_HARNESS_SWEEP_H
