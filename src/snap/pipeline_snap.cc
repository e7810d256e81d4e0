/**
 * @file
 * Pipeline snapshot field list: the instruction windows (with live
 * in-flight uops), per-context front-end and squash state, rename
 * maps, RAS, shared predictor/BTB/TLBs, the aggregate statistics, and
 * the execution fidelity with its functional-engine counters.
 *
 * Restore contract: the pipeline was freshly constructed with the
 * identical CoreParams (the artifact's config section drives the
 * rebuild), threads exist again at the same ids, and not a single
 * cycle has run. Loading then overwrites every mutable field and
 * recounts the state derived from the windows, which is never
 * written: each uop's issue-queue class, the waiting lists, the
 * completion heap, the issue-queue and rename-register occupancy, and
 * the branch hold.
 * `const Instr *` round-trips as (image id, flat index) through the
 * deterministic SnapImages registry; thread bindings round-trip by
 * thread id.
 */

#include "common/counters.h"
#include "core/pipeline.h"
#include "isa/program.h"
#include "snap/snapshot.h"

namespace smtos {

namespace {

/** An instruction pointer as (image id, flat index); (-1, 0) = null. */
template <typename Ar>
void
snapInstr(Ar &ar, const SnapImages &images, const Instr *&in)
{
    std::int32_t id = -1;
    std::uint32_t flat = 0;
    if constexpr (!Ar::loading) {
        for (int i = 0; in && id < 0 && i < images.count(); ++i) {
            const std::int64_t at = images.byId(i)->indexOf(in);
            if (at >= 0) {
                id = i;
                flat = static_cast<std::uint32_t>(at);
            }
        }
        if (in && id < 0)
            smtos_panic("snapshot: Instr pointer not in any registered "
                        "image");
    }
    ar.io(id);
    ar.io(flat);
    if constexpr (Ar::loading)
        in = id < 0 ? nullptr : images.byId(id)->instrPtr(flat);
}

/** A window uop, followed by its recovery checkpoint when it has one. */
template <typename Ar>
void
snapUop(Ar &ar, const SnapImages &images, Uop &u, UopCheckpoint &cp)
{
    snapInstr(ar, images, u.instr);
    ar.io(u.pc);
    ar.io(u.vaddr);
    ar.io(u.paddr);
    ar.io(u.mode);
    ar.io(u.tag);
    ar.io(u.thread);
    ar.io(u.seq);
    ar.io(u.stage);
    ar.io(u.wrongPath);
    ar.io(u.serializing);
    ar.io(u.mispredicted);
    ar.io(u.redirectOnly);
    ar.io(u.hasCheckpoint);
    ar.io(u.isCondBranch);
    ar.io(u.predTaken);
    ar.io(u.actualTaken);
    ar.io(u.trapDtlb);
    ar.io(u.destType);
    ar.io(u.eligibleAt);
    ar.io(u.doneAt);
    ar.io(u.drainAt);
    ar.io(u.depA);
    ar.io(u.depB);
    ar.io(u.depAPos);
    ar.io(u.depBPos);
    if (!u.hasCheckpoint)
        return;
    ar.pod(cp.cursor);
    ar.io(cp.ras.sp);
    ar.io(cp.ras.top);
    ar.io(cp.ghr);
}

} // namespace

template <typename Ar>
void
Pipeline::snap(Ar &ar, const SnapImages &images,
               const std::function<ThreadState *(ThreadId)> &threadById)
{
    ar.expect(snapVersion);
    ar.io(now_);
    ar.io(*seqPtr_);

    ar.expect(static_cast<std::int32_t>(ctxs_.size()));
    if constexpr (Ar::loading) {
        completions_.clear();
        intRegsUsed_ = fpRegsUsed_ = unissuedInt_ = unissuedFp_ = 0;
    }
    for (std::size_t i = 0; i < ctxs_.size(); ++i) {
        Context &c = ctxs_[i];
        ThreadId tid = c.thread ? c.thread->id : invalidThread;
        ar.io(tid);
        // Direct rebind: bindThread() would zero the rename maps and
        // emit an observer sync; both are overwritten/re-emitted by
        // the restore flow (resyncThreads()).
        if constexpr (Ar::loading)
            c.thread = tid == invalidThread ? nullptr : threadById(tid);
        c.ras.snap(ar);
        ar.io(c.fetchResumeAt);
        ar.io(c.stallReason);
        ar.io(c.interruptPending);
        ar.io(c.interruptVector);

        FixedRing<Uop> &q = q_[i];
        std::uint64_t head = q.headPos();
        std::uint64_t tail = q.tailPos();
        ar.io(head);
        ar.io(tail);
        if constexpr (Ar::loading) {
            q.restoreSpan(head, tail);
            waiting_[i].clear();
            // Nothing is known to be not due: walk on the next issue.
            waitDue_[i] = 0;
            c.unissued = 0;
            waitBranch_[i] = 0;
        }
        for (std::uint64_t p = head; p < tail; ++p) {
            Uop &u = q.atPos(p);
            snapUop(ar, images, u, checkpointAt(i, p));
            if constexpr (Ar::loading) {
                // Recount what the pipeline derives from the window.
                u.fpQueue = usesFpQueue(*u.instr);
                if (u.destType != 0)
                    ++(u.destType == 1 ? intRegsUsed_ : fpRegsUsed_);
                if (u.redirectOnly && u.stage != Uop::Stage::Done)
                    waitBranch_[i] = u.seq;
                if (u.stage == Uop::Stage::Fetched) {
                    ++c.unissued;
                    ++(u.fpQueue ? unissuedFp_ : unissuedInt_);
                    if (!u.serializing)
                        waiting_[i].push_back(Waiting{p, u.eligibleAt});
                } else if (u.stage == Uop::Stage::Issued) {
                    pushCompletion(Completion{u.doneAt, c.id, u.seq, p});
                }
            }
        }

        ar.pod(writerSeq_[i]);
        ar.pod(writerPos_[i]);
    }

    mcf_.snap(ar);
    btb_.snap(ar);
    itlb_.snap(ar);
    dtlb_.snap(ar);

    snapCounters(ar, stats_);

    // Reinstated without a drain: a functional-mode artifact was
    // taken with nothing in flight.
    ar.io(fidelity_);
    if constexpr (Ar::loading)
        if (fidelity_ == Fidelity::Functional)
            for (const FixedRing<Uop> &q : q_)
                smtos_assert(q.empty());
    snapCounters(ar, fidelityStats_);
}
SMTOS_SNAP_INSTANTIATE(Pipeline, const SnapImages &,
                       const std::function<ThreadState *(ThreadId)> &);

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
