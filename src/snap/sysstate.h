/**
 * @file
 * Whole-machine snapshot orchestration.
 *
 * A snapshot artifact is a config section (owned by the harness — it
 * holds everything needed to deterministically rebuild the System,
 * workloads, and fault plan from scratch) followed by the machine
 * sections this module owns, the same sequence at every chip width:
 *
 *   "PHYS"  physical memory allocator
 *   "KERN"  kernel: scheduler and per-core queues, processes + thread
 *           state + address spaces, sockets, devices, buffer cache,
 *           network + clients, SMP ledgers, overload state
 *   then once per core, in core order:
 *   "PIPE"  pipeline: windows, rename state, predictor, TLBs, stats,
 *           execution fidelity
 *   "HIER"  the core's private memory side: L1s, L1 MSHRs, store
 *           buffer
 *   and then:
 *   "UNCR"  the uncore: L2, L2 MSHRs, buses, DRAM, coherence hub
 *   "FLTP"  fault plan RNG streams and log (flag + optional body)
 *
 * The kernel section loads before the pipeline sections so thread-id
 * to ThreadState resolution finds restored processes. Restore ends
 * with Pipeline::resyncThreads() so an attached retire observer
 * (co-simulation) re-bases on the restored architectural state.
 */

#ifndef SMTOS_SNAP_SYSSTATE_H
#define SMTOS_SNAP_SYSSTATE_H

namespace smtos {

class System;
class FaultPlan;
class SnapImages;

/**
 * Deterministic image registry of @p sys: the kernel image first,
 * then every distinct user image in pid order. Both the save and the
 * load side rebuild the identical registry from their own System.
 */
SnapImages collectImages(System &sys);

/**
 * The machine sections (PHYS..FLTP) of @p sys. Loading restores them
 * over a freshly built-and-started @p sys (workloads installed, same
 * fault plan shape attached, start() run).
 */
template <typename Ar>
void snapMachineSections(Ar &ar, System &sys, FaultPlan *plan);

} // namespace smtos

#endif // SMTOS_SNAP_SYSSTATE_H
