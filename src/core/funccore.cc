/**
 * @file
 * The functional (warming-only) execution engine — Fidelity::Functional
 * half of the switchable-fidelity core (DESIGN.md §15).
 *
 * Executes the same architectural semantics as the detailed SMT
 * pipeline — cursor stepping, TLB traps, serializing hand-offs to the
 * OS, interrupt delivery — while updating caches, TLBs and the branch
 * predictor exactly as the detailed core's correct path would, but
 * composing no timing: no uops, no issue queues, no MSHR/bus/DRAM
 * latency arithmetic. One functional cycle retires up to a fetch-width
 * batch of instructions, so the clock keeps advancing (the kernel's
 * timer and scheduler stay live) at a fraction of the detailed cycle
 * count per instruction.
 *
 * The retired-instruction stream carries the full RetireEvent contract
 * (seq, pc, mode, tag, vaddr, destValue, thread-state syncs), so the
 * RefCore co-simulation oracle validates functional execution exactly
 * as it validates detailed execution, and a functional→detailed switch
 * hands over state the oracle has already checked.
 */

#include "core/pipeline.h"

#include "common/logging.h"
#include "common/trace.h"
#include "kernel/tags.h"
#include "ref/refvalue.h"

namespace smtos {

void
Pipeline::setFidelity(Fidelity f)
{
    if (f == fidelity_)
        return;
    if (f == Fidelity::Functional) {
        // Hand over from committed architectural state only: run the
        // detailed machine with fetch suppressed until every in-flight
        // uop has resolved (mispredicts squash, serializing heads
        // commit through the OS, traps vector). After the drain there
        // are no wrong-path cursors and no checkpoints to lose.
        drainForFidelitySwitch();
    }
    // Functional → Detailed needs no work: the functional engine
    // leaves nothing in flight, and the detailed fetch stage resets
    // its per-cycle line tracking itself.
    fidelity_ = f;
    ++fidelityStats_.switches;
    smtos_trace(TraceCat::Fetch, "fidelity -> %s", fidelityName(f));
}

void
Pipeline::drainForFidelitySwitch()
{
    auto any_inflight = [this]() {
        for (const Context &c : ctxs_)
            if (c.inflight != 0)
                return true;
        return false;
    };
    if (!any_inflight())
        return;
    smtos_assert(!draining_);
    draining_ = true;
    const Cycle t0 = now_;
    while (any_inflight()) {
        cycle();
        if (now_ - t0 > 400000) {
            smtos_panic("fidelity switch: drain made no progress for "
                        "400k cycles (cycle %llu)",
                        static_cast<unsigned long long>(now_));
        }
    }
    draining_ = false;
}

void
Pipeline::funcCycle()
{
    ++now_;
    ++stats_.cycles;
    ++fidelityStats_.funcCycles;
    if (probes_)
        probes_->onFunctionalCycle(now_);
    if (os_)
        os_->cycleHook(now_);

    // Deliver pending interrupts first — every context is drained by
    // construction, so delivery mirrors the detailed commit stage's
    // drained-context path. Also reset the per-cycle fetch-line
    // tracking, as the detailed fetch stage does each cycle, so the
    // L1I sees the same one-access-per-line-per-cycle warming rate.
    for (Context &c : ctxs_) {
        c.lastFetchLine = ~0ull;
        if (c.interruptPending && c.hasThread()) {
            c.interruptPending = false;
            stats_.kernelEntries.add("interrupt");
            ThreadState &t = *c.thread;
            os_->interrupt(c, t, c.interruptVector);
            if (obs_) {
                obs_->onThreadStateSync(t, *seqPtr_);
                if (c.thread && c.thread != &t)
                    obs_->onThreadStateSync(*c.thread, *seqPtr_);
            }
        }
    }

    // Execute up to a fetch-width batch, round-robined across
    // contexts from a clock-derived start (stateless rotation, so a
    // snapshot/restore cannot skew fairness).
    const int nc = static_cast<int>(ctxs_.size());
    const int start = static_cast<int>(now_ % static_cast<Cycle>(nc));
    int budget = params_.fetchWidth;
    for (int k = 0; k < nc && budget > 0; ++k) {
        Context &c = ctxs_[static_cast<size_t>((start + k) % nc)];
        if (!c.hasThread())
            continue;
        while (budget > 0) {
            const int r = funcStep(c);
            if (r == 0)
                break;
            --budget;
            if (r == 2)
                break;
        }
    }
}

int
Pipeline::funcStep(Context &c)
{
    ThreadState &t = *c.thread;
    const ImageSet is = imagesFor(t);
    Cursor &cur = t.cursor;
    if (!cur.valid() || cur.stuck())
        return 0;

    // Derive mode, PC and the instruction from ONE block lookup. This
    // is the engine's per-instruction critical path; the generic
    // cursor accessors would each redo the function/block indexing.
    const CallFrame &topf = cur.top();
    const CodeImage &img = topf.inKernel ? *is.kernel : *is.user;
    const Mode cursor_mode =
        !topf.inKernel ? Mode::User
                       : (img.palOf(topf.func) ? Mode::Pal
                                               : Mode::Kernel);
    const Mode stat_mode =
        (t.isIdleThread && cursor_mode != Mode::User) ? Mode::Idle
                                                      : cursor_mode;
    const BasicBlock &bb = img.block(topf.func, topf.block);
    const std::uint32_t flat =
        bb.firstInstr + static_cast<std::uint32_t>(topf.instrIdx);
    const Addr pc =
        img.textBase() + static_cast<Addr>(flat) * instrBytes;

    // ITLB translation + L1I warming, one access per line per cycle
    // (the detailed front end's discipline, minus the miss timing).
    const Addr line = hier_->l1i().blockOf(pc);
    if (line != c.lastFetchLine) {
        Addr paddr = 0;
        AccessInfo who{t.id, cursor_mode, c.id};
        if (cursor_mode == Mode::Pal ||
            (cursor_mode != Mode::User && pc >= kernelBase)) {
            // KSEG: physical fetch, no ITLB involvement.
            paddr = pc - kernelBase;
        } else {
            const Addr vpn = pageOf(pc);
            const Asn asn = t.space->asn();
            const std::int64_t frame = itlb_.lookup(vpn, asn, who);
            if (frame >= 0) {
                paddr = PhysMem::frameAddr(static_cast<Frame>(frame)) +
                        pageOffset(pc);
            } else if (appOnlyTlb_) {
                paddr = os_->magicTranslate(t, pc, true);
                itlb_.insert(vpn, asn, paddr >> pageShift, who,
                             pc >= kernelBase);
            } else {
                // Software-managed refill, same trap path as the
                // detailed core; the handler's instructions execute
                // on this context's next step.
                stats_.kernelEntries.add("itlb_miss");
                os_->itlbMiss(t, pc);
                if (obs_)
                    obs_->onThreadStateSync(t, *seqPtr_);
                return 2;
            }
        }
        hier_->warmFetch(paddr, who);
        c.lastFetchLine = line;
    }

    const Instr &in = img.instrAtFlat(flat);
    const std::int16_t tag =
        topf.inKernel ? kernelImage_->tagOf(topf.func)
                      : std::int16_t{-1};

    Addr vaddr = 0;
    Addr paddr = 0;
    bool is_cond = false;
    bool actual_taken = false;
    const bool serializing = in.isSerializing();

    if (serializing) {
        // Retire accounting below, then hand to the OS (which steps
        // the cursor past this instruction itself).
    } else if (in.isBranch()) {
        // Warm predictor/BTB/RAS exactly as the detailed correct path
        // does. mcf_.predict() is skipped: it reads tables without
        // updating them, so it has no warming effect.
        AccessInfo who{t.id, cursor_mode, c.id};
        const bool filtered = filterPrivBr_ && cursor_mode != Mode::User;
        BranchPreview bp = cur.previewBranch(is, t.iprs);
        switch (bp.kind) {
          case BranchPreview::Kind::Cond:
            is_cond = true;
            actual_taken = bp.taken;
            if (!filtered) {
                btb_.lookup(pc, who);
                mcf_.train(pc, bp.taken);
                if (bp.taken)
                    btb_.update(pc, bp.targetPc, who);
            }
            cur.followBranch(is, bp, bp.taken);
            break;
          case BranchPreview::Kind::Jump:
            if (!filtered) {
                btb_.lookup(pc, who);
                btb_.update(pc, bp.targetPc, who);
            }
            cur.followBranch(is, bp, true);
            break;
          case BranchPreview::Kind::Indirect: {
            actual_taken = true;
            if (!filtered) {
                BtbResult br = btb_.lookup(pc, who);
                if (br.hit && br.target != bp.targetPc)
                    btb_.noteWrongTarget();
                btb_.update(pc, bp.targetPc, who);
            }
            cur.followBranch(is, bp, true);
            break;
          }
          case BranchPreview::Kind::Call:
            if (!filtered) {
                btb_.lookup(pc, who);
                btb_.update(pc, bp.targetPc, who);
            }
            cur.followBranch(is, bp, true);
            if (!cur.stuck())
                c.ras.push(cur.parentPc(is));
            break;
          case BranchPreview::Kind::Ret:
          case BranchPreview::Kind::PalRet:
            c.ras.pop();
            cur.followBranch(is, bp, true);
            break;
        }
    } else {
        if (in.isMem()) {
            if (!cur.takeRetryVaddr(vaddr))
                vaddr = cur.memAddress(in, t.regions, t.iprs);
            AccessInfo who{t.id,
                           stat_mode == Mode::Idle ? Mode::Kernel
                                                   : stat_mode,
                           c.id};
            if (in.isPhysMem()) {
                paddr = vaddr;
            } else {
                const std::int64_t fr =
                    dtlb_.lookup(pageOf(vaddr), t.space->asn(), who);
                if (fr >= 0) {
                    paddr = PhysMem::frameAddr(static_cast<Frame>(fr)) +
                            pageOffset(vaddr);
                } else if (appOnlyTlb_) {
                    paddr = os_->magicTranslate(t, vaddr, false);
                    dtlb_.insert(pageOf(vaddr), t.space->asn(),
                                 paddr >> pageShift, who,
                                 vaddr >= kernelBase);
                } else {
                    // Precise trap with replay: the cursor has drawn
                    // the address, so arm it to retry the same one —
                    // the functional twin of the detailed core's
                    // post-draw checkpoint restore (same RNG state,
                    // same replayed address).
                    cur.setRetryVaddr(vaddr);
                    stats_.kernelEntries.add("dtlb_miss");
                    smtos_trace(TraceCat::Tlb,
                                "ctx%d dtlb miss vaddr=0x%llx", c.id,
                                (unsigned long long)vaddr);
                    os_->dtlbMiss(t, vaddr);
                    if (obs_)
                        obs_->onThreadStateSync(t, *seqPtr_);
                    return 2;
                }
            }
            hier_->warmData(paddr, who, in.isStore());
        }
        cur.stepSequential(is);
    }

    // Retire accounting, mirroring commitUop minus the timing
    // structures (no rename registers, store buffer, or probes slot
    // attribution). fetched/issued advance with retired so the
    // conservation invariant (fetched = squashed + retired + in
    // flight) holds across fidelity switches.
    ++stats_.fetched;
    ++stats_.issued;
    ++stats_.retired[static_cast<int>(stat_mode)];
    if (tag >= 0 && tag < 64)
        ++stats_.retiredByTag[tag];
    const int cls = stat_mode == Mode::User ? 0 : 1;
    ++stats_.mix[cls][static_cast<int>(in.mixClass())];
    if (in.isPhysMem())
        ++stats_.physMem[cls][in.isStore() ? 1 : 0];
    if (is_cond) {
        ++stats_.condRetired[cls];
        if (actual_taken)
            ++stats_.condTaken[cls];
    }
    cur.retired++;
    ++fidelityStats_.funcInstrs;
    const std::uint64_t seq = (*seqPtr_)++;

    if (obs_) {
        RetireEvent e;
        e.cycle = now_;
        e.ctx = c.id;
        e.thread = t.id;
        e.seq = seq;
        e.pc = pc;
        e.instr = &in;
        e.mode = stat_mode;
        e.tag = tag;
        e.vaddr = vaddr;
        e.paddr = paddr;
        e.isCondBranch = is_cond;
        e.taken = actual_taken;
        e.destValue = archWriteValue(t.archRegs, in, pc);
        if (faultAtRetire_ != 0 &&
            stats_.totalRetired() == faultAtRetire_) {
            // Test-only: misreport this retirement so the cosim
            // oracle has a wrong result to catch.
            e.pc += instrBytes;
            faultAtRetire_ = 0;
        }
        obs_->onRetire(e);
    }
    if (probes_)
        probes_->retire(c.gid, t.id, stat_mode);

    if (serializing) {
        os_->serializing(c, t, in);
        if (obs_) {
            obs_->onThreadStateSync(t, *seqPtr_);
            if (c.thread && c.thread != &t)
                obs_->onThreadStateSync(*c.thread, *seqPtr_);
        }
        return 2;
    }
    return 1;
}

} // namespace smtos
