/**
 * @file
 * The full-system simulator facade: physical memory, the chip, the
 * kernel image, and the MiniOS model, wired together. This is the
 * role SimOS-Alpha plays in the paper.
 *
 * The chip is the same at every width: a vector of cores, each a
 * Pipeline plus its private Hierarchy (L1s, L1 MSHRs, store buffer),
 * and one Uncore (L2, L2 MSHRs, buses, memory controller, coherence
 * hub) below them. The paper's single-core machine is the N = 1 chip.
 */

#ifndef SMTOS_SIM_SYSTEM_H
#define SMTOS_SIM_SYSTEM_H

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "kernel/kernel.h"
#include "mem/hierarchy.h"
#include "sim/config.h"

namespace smtos {

class Probes;

/** A complete simulated machine. */
class System
{
  public:
    explicit System(const MachineConfig &cfg);

    /**
     * Wire the observability hub into every producer: each core's
     * pipeline, TLBs and L1s, the uncore's L2 and memory controller,
     * and the kernel. Pass nullptr to detach (probe sites revert to a
     * single not-taken branch).
     */
    void attachProbes(Probes *p);

    /** Currently attached observability hub (null when detached). */
    Probes *probes() const { return probes_; }

    /**
     * Attach a fault plan (nullptr detaches). Must run before
     * start(); see Kernel::attachFaults.
     */
    void attachFaults(FaultPlan *plan) { kernel_->attachFaults(plan); }

    /** Bind initial threads; call after workloads are installed. */
    void start() { kernel_->start(); }

    /**
     * Run until @p n more instructions retire chip-wide. The cores
     * step in lockstep one chip cycle at a time, fast-forwarding only
     * when every core is quiescent (Pipeline::stepInstrs).
     */
    void run(std::uint64_t n);

    /** Run for @p n chip cycles. */
    void runCycles(Cycle n);

    Pipeline &pipeline(int core = 0)
    {
        return *pipes_[static_cast<std::size_t>(core)];
    }
    Hierarchy &hierarchy(int core = 0)
    {
        return *hiers_[static_cast<std::size_t>(core)];
    }
    Uncore &uncore() { return uncore_; }
    Kernel &kernel() { return *kernel_; }
    PhysMem &physMem() { return mem_; }
    const KernelCode &kernelCode() const { return *kc_; }
    const MachineConfig &config() const { return cfg_; }

    int numCores() const { return static_cast<int>(pipes_.size()); }
    /** Every core's pipeline, in core order. */
    const std::vector<Pipeline *> &pipes() { return pipes_; }

  private:
    MachineConfig cfg_;
    Probes *probes_ = nullptr;
    PhysMem mem_;
    /** Shared with every live System of the same kernel seed
     *  (sharedKernelImage); the kernel and the cores point into it. */
    std::shared_ptr<const KernelCode> kc_;
    Uncore uncore_;
    std::vector<std::unique_ptr<Hierarchy>> hiers_;
    std::vector<std::unique_ptr<Pipeline>> cores_;
    /** cores_ as raw pointers: the kernel, cosim and the stepping
     *  loop all take the chip as a Pipeline list. */
    std::vector<Pipeline *> pipes_;
    /** Chip-wide uop sequence counter shared by every core's
     *  cosim-observation stream (matches Pipeline's initial seq). */
    std::uint64_t chipSeq_ = 1;
    std::unique_ptr<Kernel> kernel_;
};

} // namespace smtos

#endif // SMTOS_SIM_SYSTEM_H
