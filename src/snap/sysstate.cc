#include "snap/sysstate.h"

#include "sim/system.h"
#include "snap/snapshot.h"

namespace smtos {

SnapImages
collectImages(System &sys)
{
    SnapImages images;
    images.add(&sys.kernelCode().image);
    Kernel &k = sys.kernel();
    for (int pid = 0; pid < k.numProcs(); ++pid) {
        const Process &p = k.proc(pid);
        if (p.cfg.image)
            images.add(p.cfg.image);
    }
    return images;
}

template <typename Ar>
void
snapMachineSections(Ar &ar, System &sys, FaultPlan *plan)
{
    const SnapImages images = collectImages(sys);
    Kernel &k = sys.kernel();

    ar.beginSection("PHYS", PhysMem::snapVersion);
    sys.physMem().snap(ar);
    ar.endSection();

    ar.beginSection("KERN", Kernel::snapVersion);
    k.snap(ar, images);
    ar.endSection();

    for (int c = 0; c < sys.numCores(); ++c) {
        ar.beginSection("PIPE", Pipeline::snapVersion);
        sys.pipeline(c).snap(ar, images, [&k](ThreadId tid) {
            return &k.proc(tid).ts;
        });
        ar.endSection();

        ar.beginSection("HIER", Hierarchy::snapVersion);
        sys.hierarchy(c).snap(ar);
        ar.endSection();
    }

    ar.beginSection("UNCR", Uncore::snapVersion);
    sys.uncore().snap(ar);
    ar.endSection();

    ar.beginSection("FLTP", FaultPlan::snapVersion);
    ar.expect(plan != nullptr);
    if (plan)
        plan->snap(ar);
    ar.endSection();

    if constexpr (Ar::loading)
        for (Pipeline *p : sys.pipes())
            p->resyncThreads();
}

template void snapMachineSections(Snapshotter &, System &, FaultPlan *);
template void snapMachineSections(Restorer &, System &, FaultPlan *);

} // namespace smtos
