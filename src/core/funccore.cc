/**
 * @file
 * The functional (warming-only) execution engine — Fidelity::Functional
 * half of the switchable-fidelity core (DESIGN.md §15).
 *
 * Executes the detailed SMT pipeline's own architectural rules — the
 * Pipeline helpers for translation, TLB trap entry, OS hand-offs,
 * interrupt delivery, retirement and branch training — and warms
 * caches, TLBs and the branch predictor as the detailed core's correct
 * path would, but composes no timing: no uops, no issue queues, no
 * MSHR/bus/DRAM latency arithmetic. This file keeps only what is the
 * functional engine's own: the batch loop, the DTLB-trap replay, the
 * warming calls and the functional counters. One functional cycle
 * retires up to a fetch-width batch of instructions, so the clock
 * keeps advancing (the kernel's timer and scheduler stay live) at a
 * fraction of the detailed cycle count per instruction.
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
    // leaves nothing in flight.
    fidelity_ = f;
    ++fidelityStats_.switches;
    smtos_trace(TraceCat::Fetch, "fidelity -> %s", fidelityName(f));
}

void
Pipeline::drainForFidelitySwitch()
{
    auto any_inflight = [this]() {
        for (const FixedRing<Uop> &q : q_)
            if (!q.empty())
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

    // Deliver pending interrupts first (every context is drained by
    // construction).
    for (Context &c : ctxs_)
        if (interruptDue(c))
            deliverInterrupt(c);

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
        // A context's turn comes once a cycle, so its first step reads
        // the L1I again, as the detailed fetch stage does each cycle.
        Addr last_line = ~Addr{0};
        while (budget > 0) {
            const int r = funcStep(c, last_line);
            if (r == 0)
                break;
            --budget;
            if (r == 2)
                break;
        }
    }
}

int
Pipeline::funcStep(Context &c, Addr &lastLine)
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
    if (line != lastLine) {
        Addr paddr = 0;
        if (!translateFetch(c, t, cursor_mode, pc, paddr)) {
            // The handler's instructions execute on this context's
            // next step.
            itlbTrap(c, t, pc);
            return 2;
        }
        hier_->warmFetch(paddr, AccessInfo{t.id, cursor_mode, c.id});
        lastLine = line;
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
        // Train along the correct path, as the detailed core does. It
        // also calls McFarling::predict first, for its timing, which
        // changes no state.
        using Kind = BranchPreview::Kind;
        const BranchPreview bp = cur.previewBranch(is, t.iprs);
        if (!filteredBranch(cursor_mode))
            trainBranch(bp, pc, AccessInfo{t.id, cursor_mode, c.id});
        is_cond = bp.kind == Kind::Cond;
        actual_taken = is_cond ? bp.taken : bp.kind == Kind::Indirect;
        if (bp.kind == Kind::Ret || bp.kind == Kind::PalRet)
            c.ras.pop();
        cur.followBranch(is, bp, !is_cond || bp.taken);
        if (bp.kind == Kind::Call && !cur.stuck())
            c.ras.push(cur.parentPc(is));
    } else {
        if (in.isMem()) {
            if (!cur.takeRetryVaddr(vaddr))
                vaddr = cur.memAddress(in, t.regions, t.iprs);
            const AccessInfo who{t.id,
                                 stat_mode == Mode::Idle ? Mode::Kernel
                                                         : stat_mode,
                                 c.id};
            if (!translateData(t, in, vaddr, who, paddr)) {
                // Precise trap with replay: the cursor has drawn the
                // address, so arm it to retry the same one — the
                // functional twin of the detailed core's post-draw
                // checkpoint restore (same RNG state, same replayed
                // address).
                cur.setRetryVaddr(vaddr);
                dtlbTrap(c, t, vaddr);
                return 2;
            }
            hier_->warmData(paddr, who, in.isStore());
        }
        cur.stepSequential(is);
    }

    // Retirement, as the detailed commit stage retires. fetched and
    // issued advance with retired so the conservation invariant
    // (fetched = squashed + retired + in flight) holds across fidelity
    // switches.
    ++stats_.fetched;
    ++stats_.issued;
    countRetired(t, in, stat_mode, tag, is_cond, actual_taken);
    ++fidelityStats_.funcInstrs;
    const std::uint64_t seq = (*seqPtr_)++;
    if (obs_ || probes_)
        reportRetired(c, {.thread = t.id,
                          .seq = seq,
                          .pc = pc,
                          .instr = &in,
                          .mode = stat_mode,
                          .tag = tag,
                          .vaddr = vaddr,
                          .paddr = paddr,
                          .isCondBranch = is_cond,
                          .taken = actual_taken});

    if (serializing) {
        os_->serializing(c, t, in);
        syncAfterOs(c, t);
        return 2;
    }
    return 1;
}

} // namespace smtos
