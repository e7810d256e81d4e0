/**
 * @file
 * Snapshot of the co-simulation oracle.
 *
 * A cosim session's reference cores are architectural state the
 * machine sections cannot reconstruct: each RefCore sits at the
 * last-retired point of its thread, while the live ThreadState cursor
 * is at the fetch point, ahead by everything in flight. Serializing
 * the oracle (per-thread reference cores plus their queued-but-not-
 * yet-applied OS state syncs) lets a snapshot taken mid-flight resume
 * into a cosim session with verification continuing seamlessly at the
 * first post-restore retirement.
 *
 * The per-thread "recent" report windows are deliberately not saved:
 * they only pad the divergence report, and restoring them would drag
 * RetireEvent/Instr references into the format for cosmetics.
 */

#include "harness/cosim.h"
#include "ref/refcore.h"
#include "snap/snapshot.h"

namespace smtos {

namespace {

constexpr std::uint32_t snapVersion = 1;

} // namespace

template <typename Ar>
void
RefCore::snap(Ar &ar, const SnapImages &images,
              const CodeImage *kernelImage)
{
    ar.expect(snapVersion);
    snapPosition(ar, cur_, iprs_, regions_);
    images.io(ar, is_.user);
    if constexpr (Ar::loading)
        is_.kernel = kernelImage;
    ar.io(isIdle_);
    ar.io(live_);
    ar.io(waitingOs_);
    ar.io(executed_);
    ar.pod(regs_);
}
SMTOS_SNAP_INSTANTIATE(RefCore, const SnapImages &, const CodeImage *);

template <typename Ar>
void
Cosim::snap(Ar &ar, const SnapImages &images)
{
    // A diverged oracle is a failed run; snapshotting it is a bug.
    if constexpr (!Ar::loading)
        smtos_assert(!diverged_);
    ar.expect(snapVersion);
    if constexpr (Ar::loading) {
        threads_.clear();
        diverged_ = false;
        report_.clear();
    }
    ar.io(checked_);
    ar.io(syncs_);
    // std::map: saved in ascending tid order.
    std::vector<ThreadId> tids;
    for (const auto &kv : threads_)
        tids.push_back(kv.first);
    ar.seq(tids, [&](ThreadId &tid) {
        ar.io(tid);
        ThreadChecker &tc = threads_[tid];
        tc.ref.snap(ar, images, kernelImage_);
        ar.seq(tc.pending, [&](PendingSync &ps) {
            RefSyncState &s = ps.state;
            ar.io(ps.firstSeq);
            snapPosition(ar, s.cursor, s.iprs, s.regions);
            images.io(ar, s.userImage);
            ar.io(s.isIdleThread);
        });
    });
}
SMTOS_SNAP_INSTANTIATE(Cosim, const SnapImages &);

} // namespace smtos
