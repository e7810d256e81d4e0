/**
 * @file
 * Pipeline snapshot/restore: the instruction windows (with live
 * in-flight uops), per-context front-end and squash state, rename
 * maps, RAS, shared predictor/BTB/TLBs, the aggregate statistics, and
 * the execution fidelity with its functional-engine counters.
 *
 * Restore contract: the pipeline was freshly constructed with the
 * identical CoreParams (the artifact's config section drives the
 * rebuild), threads exist again at the same ids, and not a single
 * cycle has run. load() then overwrites every mutable field.
 * `const Instr *` round-trips as (image id, flat index) through the
 * deterministic SnapImages registry; thread bindings round-trip by
 * thread id.
 */

#include <cstring>

#include "core/pipeline.h"
#include "isa/program.h"
#include "snap/snapshot.h"

namespace smtos {

namespace {

void
instrOut(Snapshotter &sp, const SnapImages &images, const Instr *in)
{
    if (!in) {
        sp.i32(-1);
        sp.u32(0);
        return;
    }
    for (int id = 0; id < images.count(); ++id) {
        const std::int64_t flat = images.byId(id)->indexOf(in);
        if (flat >= 0) {
            sp.i32(id);
            sp.u32(static_cast<std::uint32_t>(flat));
            return;
        }
    }
    smtos_panic("snapshot: Instr pointer not in any registered image");
}

const Instr *
instrIn(Restorer &rs, const SnapImages &images)
{
    const std::int32_t id = rs.i32();
    const std::uint32_t flat = rs.u32();
    if (id < 0)
        return nullptr;
    return images.byId(id)->instrPtr(flat);
}

void
uopOut(Snapshotter &sp, const SnapImages &images, const Uop &u)
{
    instrOut(sp, images, u.instr);
    sp.u64(u.pc);
    sp.u64(u.vaddr);
    sp.u64(u.paddr);
    sp.u8(static_cast<std::uint8_t>(u.mode));
    sp.i32(u.tag);
    sp.i32(u.thread);
    sp.u64(u.seq);
    sp.u8(static_cast<std::uint8_t>(u.stage));
    sp.b(u.wrongPath);
    sp.b(u.serializing);
    sp.b(u.mispredicted);
    sp.b(u.redirectOnly);
    sp.b(u.hasCheckpoint);
    sp.b(u.isCondBranch);
    sp.b(u.predTaken);
    sp.b(u.actualTaken);
    sp.b(u.trapDtlb);
    sp.u8(u.destType);
    sp.u64(u.eligibleAt);
    sp.u64(u.doneAt);
    sp.u64(u.drainAt);
    sp.u64(u.depA);
    sp.u64(u.depB);
    sp.u64(u.depAPos);
    sp.u64(u.depBPos);
    sp.bytes(&u.cp, sizeof u.cp); // Cursor: trivially copyable
    sp.i32(u.rasCp.sp);
    sp.u64(u.rasCp.top);
    sp.u64(u.ghrCp);
}

void
uopIn(Restorer &rs, const SnapImages &images, Uop &u)
{
    u.instr = instrIn(rs, images);
    u.pc = rs.u64();
    u.vaddr = rs.u64();
    u.paddr = rs.u64();
    u.mode = static_cast<Mode>(rs.u8());
    u.tag = static_cast<std::int16_t>(rs.i32());
    u.thread = rs.i32();
    u.seq = rs.u64();
    u.stage = static_cast<Uop::Stage>(rs.u8());
    u.wrongPath = rs.b();
    u.serializing = rs.b();
    u.mispredicted = rs.b();
    u.redirectOnly = rs.b();
    u.hasCheckpoint = rs.b();
    u.isCondBranch = rs.b();
    u.predTaken = rs.b();
    u.actualTaken = rs.b();
    u.trapDtlb = rs.b();
    u.destType = rs.u8();
    u.eligibleAt = rs.u64();
    u.doneAt = rs.u64();
    u.drainAt = rs.u64();
    u.depA = rs.u64();
    u.depB = rs.u64();
    u.depAPos = rs.u64();
    u.depBPos = rs.u64();
    rs.bytes(&u.cp, sizeof u.cp);
    u.rasCp.sp = rs.i32();
    u.rasCp.top = rs.u64();
    u.ghrCp = rs.u64();
}

void
coreStatsOut(Snapshotter &sp, const CoreStats &s)
{
    sp.u64(s.cycles);
    sp.u64(s.fetched);
    sp.u64(s.fetchedWrongPath);
    sp.u64(s.squashed);
    sp.u64(s.issued);
    sp.bytes(s.retired, sizeof s.retired);
    sp.bytes(s.retiredByTag, sizeof s.retiredByTag);
    sp.bytes(s.mix, sizeof s.mix);
    sp.bytes(s.physMem, sizeof s.physMem);
    sp.bytes(s.condRetired, sizeof s.condRetired);
    sp.bytes(s.condTaken, sizeof s.condTaken);
    sp.bytes(s.condMispred, sizeof s.condMispred);
    sp.bytes(s.targetMispred, sizeof s.targetMispred);
    sp.u64(s.zeroFetchCycles);
    sp.u64(s.zeroIssueCycles);
    sp.u64(s.maxIssueCycles);
    s.fetchableContexts.save(sp);
    s.kernelEntries.save(sp);
}

void
coreStatsIn(Restorer &rs, CoreStats &s)
{
    s.cycles = rs.u64();
    s.fetched = rs.u64();
    s.fetchedWrongPath = rs.u64();
    s.squashed = rs.u64();
    s.issued = rs.u64();
    rs.bytes(s.retired, sizeof s.retired);
    rs.bytes(s.retiredByTag, sizeof s.retiredByTag);
    rs.bytes(s.mix, sizeof s.mix);
    rs.bytes(s.physMem, sizeof s.physMem);
    rs.bytes(s.condRetired, sizeof s.condRetired);
    rs.bytes(s.condTaken, sizeof s.condTaken);
    rs.bytes(s.condMispred, sizeof s.condMispred);
    rs.bytes(s.targetMispred, sizeof s.targetMispred);
    s.zeroFetchCycles = rs.u64();
    s.zeroIssueCycles = rs.u64();
    s.maxIssueCycles = rs.u64();
    s.fetchableContexts.load(rs);
    s.kernelEntries.load(rs);
}

} // namespace

void
Pipeline::save(Snapshotter &sp, const SnapImages &images) const
{
    sp.u32(snapVersion);
    sp.u64(now_);
    sp.u64(*seqPtr_);
    sp.i32(intRegsUsed_);
    sp.i32(fpRegsUsed_);
    sp.i32(unissuedInt_);
    sp.i32(unissuedFp_);
    sp.u64(ffCycles_);
    sp.u8(static_cast<std::uint8_t>(fetchStop_));

    sp.i32(static_cast<std::int32_t>(ctxs_.size()));
    for (std::size_t i = 0; i < ctxs_.size(); ++i) {
        const Context &c = ctxs_[i];
        sp.i32(c.thread ? c.thread->id : invalidThread);
        c.ras.save(sp);
        sp.u64(c.fetchResumeAt);
        sp.u8(static_cast<std::uint8_t>(c.stallReason));
        sp.b(c.interruptPending);
        sp.u16(c.interruptVector);
        sp.i32(c.inflight);
        sp.i32(c.unissued);
        sp.u64(c.lastFetchLine);

        const FixedRing<Uop> &q = q_[i];
        sp.u64(q.headPos());
        sp.u64(q.tailPos());
        for (std::uint64_t p = q.headPos(); p < q.tailPos(); ++p)
            uopOut(sp, images, q.atPos(p));

        sp.u64(waitBranch_[i]);
        sp.bytes(writerSeq_[i].data(),
                 writerSeq_[i].size() * sizeof(std::uint64_t));
        sp.bytes(writerPos_[i].data(),
                 writerPos_[i].size() * sizeof(std::uint64_t));
    }

    mcf_.save(sp);
    btb_.save(sp);
    itlb_.save(sp);
    dtlb_.save(sp);
    coreStatsOut(sp, stats_);

    sp.u8(static_cast<std::uint8_t>(fidelity_));
    sp.u64(funcInstrs_);
    sp.u64(funcCycles_);
    sp.u64(fidelitySwitches_);
}

void
Pipeline::load(Restorer &rs, const SnapImages &images,
               const std::function<ThreadState *(ThreadId)> &threadById)
{
    smtos_assert(rs.u32() == snapVersion);
    now_ = rs.u64();
    *seqPtr_ = rs.u64();
    intRegsUsed_ = rs.i32();
    fpRegsUsed_ = rs.i32();
    unissuedInt_ = rs.i32();
    unissuedFp_ = rs.i32();
    ffCycles_ = rs.u64();
    fetchStop_ = static_cast<FetchStop>(rs.u8());

    smtos_assert(rs.i32() ==
                 static_cast<std::int32_t>(ctxs_.size()));
    for (std::size_t i = 0; i < ctxs_.size(); ++i) {
        Context &c = ctxs_[i];
        const ThreadId tid = rs.i32();
        // Direct rebind: bindThread() would zero the rename maps and
        // emit an observer sync; both are overwritten/re-emitted by
        // the restore flow (resyncThreads()).
        c.thread = tid == invalidThread ? nullptr : threadById(tid);
        c.ras.load(rs);
        c.fetchResumeAt = rs.u64();
        c.stallReason = static_cast<FetchStall>(rs.u8());
        c.interruptPending = rs.b();
        c.interruptVector = rs.u16();
        c.inflight = rs.i32();
        c.unissued = rs.i32();
        c.lastFetchLine = rs.u64();

        FixedRing<Uop> &q = q_[i];
        const std::uint64_t head = rs.u64();
        const std::uint64_t tail = rs.u64();
        q.restoreSpan(head, tail);
        for (std::uint64_t p = head; p < tail; ++p)
            uopIn(rs, images, q.atPos(p));

        waitBranch_[i] = rs.u64();
        rs.bytes(writerSeq_[i].data(),
                 writerSeq_[i].size() * sizeof(std::uint64_t));
        rs.bytes(writerPos_[i].data(),
                 writerPos_[i].size() * sizeof(std::uint64_t));
    }

    mcf_.load(rs);
    btb_.load(rs);
    itlb_.load(rs);
    dtlb_.load(rs);
    coreStatsIn(rs, stats_);

    // Reinstated without a drain: a functional-mode artifact was
    // taken with nothing in flight.
    fidelity_ = static_cast<Fidelity>(rs.u8());
    if (fidelity_ == Fidelity::Functional)
        for (const Context &c : ctxs_)
            smtos_assert(c.inflight == 0);
    funcInstrs_ = rs.u64();
    funcCycles_ = rs.u64();
    fidelitySwitches_ = rs.u64();
}

void
Pipeline::resyncThreads()
{
    if (!obs_)
        return;
    // firstSeq 0, not nextSeq_: the restored archRegs are the
    // committed state, and restored in-flight uops (all with
    // seq < nextSeq_) retire sequentially on top of it.
    for (const Context &c : ctxs_)
        if (c.thread)
            obs_->onThreadStateSync(*c.thread, 0);
}

} // namespace smtos
