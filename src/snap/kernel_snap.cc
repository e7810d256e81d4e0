/**
 * @file
 * Kernel snapshot field list: scheduler and process state, per-thread
 * architected state and address spaces, the per-core run and protocol
 * queues, the socket/connection layer, device timing, the buffer
 * cache, the attached network + client population, the SMP lock and
 * shootdown ledgers, and the overload (admission/mbuf) state.
 *
 * Restore contract: the kernel was freshly booted with the identical
 * deterministic configuration (same Params, same createProcess calls
 * in the same order, attachFaults with the same plan shape, then
 * start()), so procs_ holds the same processes at the same pids and
 * all structural sizes match. Loading then overwrites every mutable
 * field the boot path initialized.
 */

#include <algorithm>

#include "kernel/kernel.h"
#include "snap/snapshot.h"

namespace smtos {

template <typename Ar>
void
Kernel::snap(Ar &ar, const SnapImages &images)
{
    ar.expect(snapVersion);

    // Device/scheduler timing and allocation cursors.
    ar.io(nextAsn_);
    ar.io(mbufCursor_);
    ar.io(nextNicAt_);
    ar.io(nowCycle_);
    ar.io(tlbLockFreeAt_);
    ar.expect(nextTimerAt_.size());
    ar.pod(nextTimerAt_);
    ar.io(nextIntrCtx_);
    rng_.snap(ar);

    // Counters.
    mmEntries_.snap(ar);
    syscalls_.snap(ar);
    ar.io(requestsServed_);
    ar.io(diskReads_);
    ar.io(switches_);
    ar.io(wraparounds_);
    ar.io(synDrops_);
    ar.io(backlogDrops_);
    ar.io(mceKills_);
    ar.io(faultLogEmitted_);

    kernelSpace_->snap(ar);

    // Processes (pids are dense indexes; the rebuild recreates the
    // same set in the same order). id / isIdleThread / space /
    // userImage are rebuilt by the boot path; only the mutable
    // architected state round-trips.
    ar.expect(procs_.size());
    for (auto &up : procs_) {
        Process &p = *up;
        ar.io(p.state);
        ar.io(p.lastCtx);
        ar.io(p.waitChan);
        ar.io(p.runningOn);
        ar.io(p.pendingSyscall);
        ar.io(p.mceHits);
        ar.io(p.conn);
        ar.io(p.reqConsumed);
        ar.io(p.fileBytesLeft);
        ar.io(p.filePage);
        ar.io(p.lastChunk);
        ar.io(p.requestsServed);
        ar.io(p.homeCore);
        p.txPacket.snap(ar);
        snapPosition(ar, p.ts.cursor, p.ts.iprs, p.ts.regions);
        ar.io(p.ts.seed);
        ar.pod(p.ts.archRegs);
        ar.expect(p.space != nullptr);
        if (p.space)
            p.space->snap(ar);
    }

    // Scheduler queues and bindings, as pid lists (-1 = null).
    const auto pid = [&](Process *&p) {
        std::int32_t id = p ? p->pid : -1;
        ar.io(id);
        if constexpr (Ar::loading) {
            smtos_assert(id < static_cast<int>(procs_.size()));
            p = id < 0 ? nullptr
                       : procs_[static_cast<std::size_t>(id)].get();
        }
    };
    for (auto &rq : runqs_)
        ar.seq(rq, pid);
    ar.expect(curProc_.size());
    for (Process *&p : curProc_)
        pid(p);
    ar.expect(idleForCtx_.size());
    for (Process *&p : idleForCtx_)
        pid(p);
    ar.expect(waiters_.size());
    for (auto &chan : waiters_)
        ar.seq(chan, pid);

    // Socket layer and devices.
    ar.expect(conns_.size());
    for (Connection &c : conns_) {
        ar.io(c.inUse);
        ar.io(c.client);
        ar.io(c.fileId);
        ar.io(c.reqBytes);
        ar.io(c.recvAvail);
        ar.io(c.mbuf);
        ar.io(c.owner);
        ar.io(c.reqSeq);
        ar.io(c.acceptedAt);
    }
    ar.seq(acceptQ_, [&ar](int &id) { ar.io(id); });
    const auto packet = [&ar](Packet &p) { p.snap(ar); };
    ar.seq(nicRing_, packet);
    for (auto &pq : protoQs_)
        ar.seq(pq, packet);

    ar.map(bufcache_);

    // Shared text frames, keyed by deterministic image id.
    std::vector<std::pair<std::int32_t, std::vector<Frame>>> text;
    if constexpr (!Ar::loading) {
        for (const auto &[img, frames] : sharedText_)
            text.emplace_back(images.idOf(img), frames);
        std::sort(text.begin(), text.end());
    }
    ar.seq(text, [&ar](auto &t) {
        ar.io(t.first);
        ar.vec(t.second);
    });
    if constexpr (Ar::loading) {
        sharedText_.clear();
        for (auto &[id, frames] : text)
            sharedText_[images.byId(id)] = std::move(frames);
    }

    net_.snap(ar);
    ar.expect(clients_ != nullptr);
    if (clients_)
        clients_->snap(ar);

    // SMP locks and ledgers (per-core sizes are structural: the
    // identical rebuild allocates the same number of cores).
    ar.pod(connLock_);
    ar.pod(mbufLock_);
    ar.pod(schedLocks_);
    ar.pod(lockSpinByCore_);
    ar.io(steals_);
    ar.io(shootdownIpis_);
    ar.io(shootdownsDelivered_);
    ar.io(pendingShootdowns_);
    ar.io(lastHookCycle_);

    // Overload protection. The admission policy itself was rebuilt
    // from the artifact's config; only its RNG stream is live state.
    std::uint64_t admitRng = admit_ ? admit_->rngRawState() : 0;
    ar.io(admitRng);
    if constexpr (Ar::loading)
        if (admit_)
            admit_->setRngRawState(admitRng);
    ar.io(mbufTxCursor_);
    ar.io(admitDropTail_);
    ar.io(admitRedDrops_);
    ar.io(admitShed_);
    ar.io(mbufExhausted_);
    ar.io(mbufTxWraps_);
    // The RX unit map is derived state, rebuilt from the restored
    // connections and protocol queues.
    if constexpr (Ar::loading)
        if (params_.admit.mbufAccounting)
            rebuildRxMap();
}
SMTOS_SNAP_INSTANTIATE(Kernel, const SnapImages &);

} // namespace smtos
