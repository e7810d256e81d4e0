/**
 * @file
 * Kernel snapshot/restore: scheduler and process state, per-thread
 * architected state and address spaces, the per-core run and protocol
 * queues, the socket/connection layer, device timing, the buffer
 * cache, the attached network + client population, the SMP lock and
 * shootdown ledgers, and the overload (admission/mbuf) state.
 *
 * Restore contract: the kernel was freshly booted with the identical
 * deterministic configuration (same Params, same createProcess calls
 * in the same order, attachFaults with the same plan shape, then
 * start()), so procs_ holds the same processes at the same pids and
 * all structural sizes match. load() then overwrites every mutable
 * field the boot path initialized.
 */

#include <algorithm>

#include "kernel/kernel.h"
#include "snap/snapshot.h"

namespace smtos {

namespace {

// Field order must match packetOut/packetIn in snap/state.cc (the
// Network section uses those); both sides of each section pair live in
// one file, so the duplication is only a consistency convention.
void
pktOut(Snapshotter &sp, const Packet &p)
{
    sp.i32(p.client);
    sp.i32(p.conn);
    sp.u32(p.bytes);
    sp.b(p.open);
    sp.b(p.fin);
    sp.i32(p.fileId);
    sp.u64(p.mbuf);
    sp.u32(p.reqSeq);
}

Packet
pktIn(Restorer &rs)
{
    Packet p;
    p.client = rs.i32();
    p.conn = rs.i32();
    p.bytes = rs.u32();
    p.open = rs.b();
    p.fin = rs.b();
    p.fileId = rs.i32();
    p.mbuf = rs.u64();
    p.reqSeq = rs.u32();
    return p;
}

void
threadStateOut(Snapshotter &sp, const ThreadState &ts)
{
    // id / isIdleThread / space / userImage are rebuilt by the boot
    // path; only the mutable architected state round-trips.
    sp.bytes(&ts.cursor, sizeof ts.cursor); // Cursor: trivially copyable
    sp.u64(ts.iprs.copySrc);
    sp.u64(ts.iprs.copyDst);
    sp.u32(ts.iprs.copyTrip);
    sp.u32(ts.iprs.serviceTrip);
    sp.u32(ts.iprs.intrTrip);
    sp.b(ts.iprs.copySrcPhysical);
    sp.b(ts.iprs.copyDstPhysical);
    for (const MemRegion &r : ts.regions) {
        sp.u64(r.base);
        sp.u64(r.bytes);
        sp.b(r.sharedHot);
    }
    sp.u64(ts.seed);
    sp.bytes(ts.archRegs.data(),
             ts.archRegs.size() * sizeof(std::uint64_t));
}

void
threadStateIn(Restorer &rs, ThreadState &ts)
{
    rs.bytes(&ts.cursor, sizeof ts.cursor);
    ts.iprs.copySrc = rs.u64();
    ts.iprs.copyDst = rs.u64();
    ts.iprs.copyTrip = rs.u32();
    ts.iprs.serviceTrip = rs.u32();
    ts.iprs.intrTrip = rs.u32();
    ts.iprs.copySrcPhysical = rs.b();
    ts.iprs.copyDstPhysical = rs.b();
    for (MemRegion &r : ts.regions) {
        r.base = rs.u64();
        r.bytes = rs.u64();
        r.sharedHot = rs.b();
    }
    ts.seed = rs.u64();
    rs.bytes(ts.archRegs.data(),
             ts.archRegs.size() * sizeof(std::uint64_t));
}

void
connOut(Snapshotter &sp, const Connection &c)
{
    sp.b(c.inUse);
    sp.i32(c.client);
    sp.i32(c.fileId);
    sp.u32(c.reqBytes);
    sp.u32(c.recvAvail);
    sp.u64(c.mbuf);
    sp.i32(c.owner);
    sp.u32(c.reqSeq);
    sp.u64(c.acceptedAt);
}

void
connIn(Restorer &rs, Connection &c)
{
    c.inUse = rs.b();
    c.client = rs.i32();
    c.fileId = rs.i32();
    c.reqBytes = rs.u32();
    c.recvAvail = rs.u32();
    c.mbuf = rs.u64();
    c.owner = rs.i32();
    c.reqSeq = rs.u32();
    c.acceptedAt = rs.u64();
}

void
lockOut(Snapshotter &sp, const KLock &l)
{
    sp.u64(l.freeAt);
    sp.u64(l.acquisitions);
    sp.u64(l.contended);
    sp.u64(l.spinCycles);
    sp.u64(l.holdCycles);
}

void
lockIn(Restorer &rs, KLock &l)
{
    l.freeAt = rs.u64();
    l.acquisitions = rs.u64();
    l.contended = rs.u64();
    l.spinCycles = rs.u64();
    l.holdCycles = rs.u64();
}

std::uint32_t
tag(Restorer &rs, std::uint32_t want)
{
    const std::uint32_t v = rs.u32();
    smtos_assert(v == want);
    return v;
}

} // namespace

void
Kernel::save(Snapshotter &sp, const SnapImages &images) const
{
    sp.u32(snapVersion);

    // Device/scheduler timing and allocation cursors.
    sp.i32(nextAsn_);
    sp.u64(mbufCursor_);
    sp.u64(nextNicAt_);
    sp.u64(nowCycle_);
    sp.u64(tlbLockFreeAt_);
    sp.u64(nextTimerAt_.size());
    for (const Cycle t : nextTimerAt_)
        sp.u64(t);
    sp.i32(nextIntrCtx_);
    sp.u64(rng_.rawState());

    // Counters.
    mmEntries_.save(sp);
    syscalls_.save(sp);
    sp.u64(requestsServed_);
    sp.u64(diskReads_);
    sp.u64(switches_);
    sp.u64(wraparounds_);
    sp.u64(synDrops_);
    sp.u64(backlogDrops_);
    sp.u64(mceKills_);
    sp.u64(faultLogEmitted_);

    kernelSpace_->save(sp);

    // Processes (pids are dense indexes; the rebuild recreates the
    // same set in the same order).
    sp.u64(procs_.size());
    for (const auto &up : procs_) {
        const Process &p = *up;
        sp.u8(static_cast<std::uint8_t>(p.state));
        sp.i32(p.lastCtx);
        sp.u16(p.waitChan);
        sp.i32(p.runningOn);
        sp.u16(p.pendingSyscall);
        sp.u32(p.mceHits);
        sp.i32(p.conn);
        sp.b(p.reqConsumed);
        sp.u32(p.fileBytesLeft);
        sp.u32(p.filePage);
        sp.u32(p.lastChunk);
        sp.u64(p.requestsServed);
        sp.i32(p.homeCore);
        pktOut(sp, p.txPacket);
        threadStateOut(sp, p.ts);
        sp.b(p.space != nullptr);
        if (p.space)
            p.space->save(sp);
    }

    // Scheduler queues and bindings, as pid lists (-1 = null).
    auto pidOf = [](const Process *p) {
        return p ? p->pid : -1;
    };
    for (const auto &rq : runqs_) {
        sp.u64(rq.size());
        for (const Process *p : rq)
            sp.i32(pidOf(p));
    }
    sp.u64(curProc_.size());
    for (const Process *p : curProc_)
        sp.i32(pidOf(p));
    sp.u64(idleForCtx_.size());
    for (const Process *p : idleForCtx_)
        sp.i32(pidOf(p));
    sp.u64(waiters_.size());
    for (const auto &chan : waiters_) {
        sp.u64(chan.size());
        for (const Process *p : chan)
            sp.i32(pidOf(p));
    }

    // Socket layer and devices.
    sp.u64(conns_.size());
    for (const Connection &c : conns_)
        connOut(sp, c);
    sp.u64(acceptQ_.size());
    for (const int id : acceptQ_)
        sp.i32(id);
    sp.u64(nicRing_.size());
    for (const Packet &p : nicRing_)
        pktOut(sp, p);
    for (const auto &pq : protoQs_) {
        sp.u64(pq.size());
        for (const Packet &p : pq)
            pktOut(sp, p);
    }

    // Buffer cache, sorted for deterministic artifact bytes.
    {
        std::vector<std::pair<std::uint64_t, Frame>> entries(
            bufcache_.begin(), bufcache_.end());
        std::sort(entries.begin(), entries.end());
        sp.u64(entries.size());
        for (const auto &[k, v] : entries) {
            sp.u64(k);
            sp.u64(v);
        }
    }

    // Shared text frames, keyed by deterministic image id.
    {
        std::vector<std::pair<int, const std::vector<Frame> *>> entries;
        for (const auto &[img, frames] : sharedText_)
            entries.emplace_back(images.idOf(img), &frames);
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        sp.u64(entries.size());
        for (const auto &[id, frames] : entries) {
            sp.i32(id);
            sp.u64(frames->size());
            for (const Frame f : *frames)
                sp.u64(f);
        }
    }

    net_.save(sp);
    sp.b(clients_ != nullptr);
    if (clients_)
        clients_->save(sp);

    // SMP locks and ledgers (per-core sizes are structural: the
    // identical rebuild allocates the same number of cores).
    lockOut(sp, connLock_);
    lockOut(sp, mbufLock_);
    for (const KLock &l : schedLocks_)
        lockOut(sp, l);
    for (const std::uint64_t v : lockSpinByCore_)
        sp.u64(v);
    sp.u64(steals_);
    sp.u64(shootdownIpis_);
    sp.u64(shootdownsDelivered_);
    sp.u64(pendingShootdowns_);
    sp.u64(lastHookCycle_);

    // Overload protection. The RX unit map is derived state: load()
    // rebuilds it from the restored connections and protocol queues.
    sp.u64(admit_ ? admit_->rngRawState() : 0);
    sp.u64(mbufTxCursor_);
    sp.u64(admitDropTail_);
    sp.u64(admitRedDrops_);
    sp.u64(admitShed_);
    sp.u64(mbufExhausted_);
    sp.u64(mbufTxWraps_);
}

void
Kernel::load(Restorer &rs, const SnapImages &images)
{
    tag(rs, snapVersion);

    nextAsn_ = rs.i32();
    mbufCursor_ = rs.u64();
    nextNicAt_ = rs.u64();
    nowCycle_ = rs.u64();
    tlbLockFreeAt_ = rs.u64();
    smtos_assert(rs.u64() == nextTimerAt_.size());
    for (Cycle &t : nextTimerAt_)
        t = rs.u64();
    nextIntrCtx_ = rs.i32();
    rng_.setRawState(rs.u64());

    mmEntries_.load(rs);
    syscalls_.load(rs);
    requestsServed_ = rs.u64();
    diskReads_ = rs.u64();
    switches_ = rs.u64();
    wraparounds_ = rs.u64();
    synDrops_ = rs.u64();
    backlogDrops_ = rs.u64();
    mceKills_ = rs.u64();
    faultLogEmitted_ = static_cast<std::size_t>(rs.u64());

    kernelSpace_->load(rs);

    smtos_assert(rs.u64() == procs_.size());
    for (auto &up : procs_) {
        Process &p = *up;
        p.state = static_cast<Process::State>(rs.u8());
        p.lastCtx = rs.i32();
        p.waitChan = rs.u16();
        p.runningOn = rs.i32();
        p.pendingSyscall = rs.u16();
        p.mceHits = rs.u32();
        p.conn = rs.i32();
        p.reqConsumed = rs.b();
        p.fileBytesLeft = rs.u32();
        p.filePage = rs.u32();
        p.lastChunk = rs.u32();
        p.requestsServed = rs.u64();
        p.homeCore = rs.i32();
        p.txPacket = pktIn(rs);
        threadStateIn(rs, p.ts);
        const bool hasSpace = rs.b();
        smtos_assert(hasSpace == (p.space != nullptr));
        if (p.space)
            p.space->load(rs);
    }

    auto byPid = [this](int pid) -> Process * {
        if (pid < 0)
            return nullptr;
        smtos_assert(pid < static_cast<int>(procs_.size()));
        return procs_[static_cast<std::size_t>(pid)].get();
    };
    for (auto &rq : runqs_) {
        rq.clear();
        for (std::uint64_t n = rs.u64(); n > 0; --n)
            rq.push_back(byPid(rs.i32()));
    }
    smtos_assert(rs.u64() == curProc_.size());
    for (Process *&p : curProc_)
        p = byPid(rs.i32());
    smtos_assert(rs.u64() == idleForCtx_.size());
    for (Process *&p : idleForCtx_)
        p = byPid(rs.i32());
    smtos_assert(rs.u64() == waiters_.size());
    for (auto &chan : waiters_) {
        chan.clear();
        for (std::uint64_t n = rs.u64(); n > 0; --n)
            chan.push_back(byPid(rs.i32()));
    }

    smtos_assert(rs.u64() == conns_.size());
    for (Connection &c : conns_)
        connIn(rs, c);
    acceptQ_.clear();
    for (std::uint64_t n = rs.u64(); n > 0; --n)
        acceptQ_.push_back(rs.i32());
    nicRing_.clear();
    for (std::uint64_t n = rs.u64(); n > 0; --n)
        nicRing_.push_back(pktIn(rs));
    for (auto &pq : protoQs_) {
        pq.clear();
        for (std::uint64_t n = rs.u64(); n > 0; --n)
            pq.push_back(pktIn(rs));
    }

    bufcache_.clear();
    for (std::uint64_t n = rs.u64(); n > 0; --n) {
        const std::uint64_t k = rs.u64();
        bufcache_[k] = rs.u64();
    }

    sharedText_.clear();
    for (std::uint64_t n = rs.u64(); n > 0; --n) {
        const CodeImage *img = images.byId(rs.i32());
        std::vector<Frame> frames(rs.u64());
        for (Frame &f : frames)
            f = rs.u64();
        sharedText_[img] = std::move(frames);
    }

    net_.load(rs);
    const bool hasClients = rs.b();
    smtos_assert(hasClients == (clients_ != nullptr));
    if (clients_)
        clients_->load(rs);

    lockIn(rs, connLock_);
    lockIn(rs, mbufLock_);
    for (KLock &l : schedLocks_)
        lockIn(rs, l);
    for (std::uint64_t &v : lockSpinByCore_)
        v = rs.u64();
    steals_ = rs.u64();
    shootdownIpis_ = rs.u64();
    shootdownsDelivered_ = rs.u64();
    pendingShootdowns_ = rs.u64();
    lastHookCycle_ = rs.u64();

    // The admission policy itself was rebuilt from the artifact's
    // config; only its RNG stream is live state.
    const std::uint64_t admitRng = rs.u64();
    if (admit_)
        admit_->setRngRawState(admitRng);
    mbufTxCursor_ = rs.u64();
    admitDropTail_ = rs.u64();
    admitRedDrops_ = rs.u64();
    admitShed_ = rs.u64();
    mbufExhausted_ = rs.u64();
    mbufTxWraps_ = rs.u64();
    if (params_.admit.mbufAccounting)
        rebuildRxMap();
}

} // namespace smtos
