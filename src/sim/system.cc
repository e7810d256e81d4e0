#include "sim/system.h"

namespace smtos {

System::System(const MachineConfig &cfg)
    : cfg_(cfg),
      mem_(128ull * 1024 * 1024, reservedPhysBytes),
      kc_(sharedKernelImage(cfg.kernel.seed ^ 0xfeedull)),
      uncore_(cfg.mem)
{
    for (int c = 0; c < cfg.cores; ++c) {
        hiers_.push_back(std::make_unique<Hierarchy>(cfg.mem, uncore_));
        cores_.push_back(std::make_unique<Pipeline>(
            cfg.core, *hiers_.back(), &kc_->image));
        Pipeline &p = *cores_.back();
        p.setCoreId(c, c * cfg.core.numContexts);
        // Every core draws uop sequence numbers from one chip-wide
        // counter so cosim's per-thread ordering survives migration.
        p.setSharedSeq(&chipSeq_);
        p.setAppOnlyTlb(cfg.kernel.appOnly);
        pipes_.push_back(&p);
    }
    kernel_ = std::make_unique<Kernel>(cfg.kernel, pipes_, uncore_, mem_,
                                       *kc_);
}

void
System::attachProbes(Probes *p)
{
    probes_ = p;
    for (int c = 0; c < numCores(); ++c) {
        Pipeline &pipe = pipeline(c);
        pipe.setProbes(p);
        pipe.itlb().setProbes(p);
        pipe.dtlb().setProbes(p);
        hierarchy(c).l1i().setProbes(p);
        hierarchy(c).l1d().setProbes(p);
    }
    uncore_.l2().setProbes(p);
    uncore_.memctrl().setProbes(p);
    kernel_->setProbes(p);
}

void
System::run(std::uint64_t n)
{
    Pipeline::stepInstrs(pipes_, n);
}

void
System::runCycles(Cycle n)
{
    Pipeline::stepCycles(pipes_, n);
}

} // namespace smtos
