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

void
saveMachineSections(Snapshotter &sp, System &sys, FaultPlan *plan)
{
    const SnapImages images = collectImages(sys);

    sp.beginSection("PHYS", PhysMem::snapVersion);
    sys.physMem().save(sp);
    sp.endSection();

    sp.beginSection("KERN", Kernel::snapVersion);
    sys.kernel().save(sp, images);
    sp.endSection();

    for (int c = 0; c < sys.numCores(); ++c) {
        sp.beginSection("PIPE", Pipeline::snapVersion);
        sys.pipeline(c).save(sp, images);
        sp.endSection();

        sp.beginSection("HIER", Hierarchy::snapVersion);
        sys.hierarchy(c).save(sp);
        sp.endSection();
    }

    sp.beginSection("UNCR", Uncore::snapVersion);
    sys.uncore().save(sp);
    sp.endSection();

    sp.beginSection("FLTP", FaultPlan::snapVersion);
    sp.b(plan != nullptr);
    if (plan)
        plan->save(sp);
    sp.endSection();
}

void
loadMachineSections(Restorer &rs, System &sys, FaultPlan *plan)
{
    const SnapImages images = collectImages(sys);
    Kernel &k = sys.kernel();

    rs.enterSection("PHYS");
    sys.physMem().load(rs);
    rs.leaveSection();

    rs.enterSection("KERN");
    k.load(rs, images);
    rs.leaveSection();

    for (int c = 0; c < sys.numCores(); ++c) {
        rs.enterSection("PIPE");
        sys.pipeline(c).load(rs, images, [&k](ThreadId tid) {
            return &k.proc(tid).ts;
        });
        rs.leaveSection();

        rs.enterSection("HIER");
        sys.hierarchy(c).load(rs);
        rs.leaveSection();
    }

    rs.enterSection("UNCR");
    sys.uncore().load(rs);
    rs.leaveSection();

    rs.enterSection("FLTP");
    const bool hadPlan = rs.b();
    smtos_assert(hadPlan == (plan != nullptr));
    if (plan)
        plan->load(rs);
    rs.leaveSection();

    for (Pipeline *p : sys.pipes())
        p->resyncThreads();
}

} // namespace smtos
