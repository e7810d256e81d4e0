/**
 * @file
 * The SMT out-of-order pipeline (Table 1).
 *
 * A cycle-driven model with ICOUNT-2.8 fetch from up to two contexts,
 * wrong-path fetching down mispredicted conditional branches, shared
 * issue queues / renaming registers / functional units, per-context
 * precise squash, software-managed TLB traps, and commit-time
 * serializing instructions that hand control to the OS model. The
 * superscalar baseline is the same pipeline with one context and two
 * fewer stages.
 */

#ifndef SMTOS_CORE_PIPELINE_H
#define SMTOS_CORE_PIPELINE_H

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "bp/btb.h"
#include "bp/mcfarling.h"
#include "common/ring.h"
#include "core/context.h"
#include "mem/hierarchy.h"
#include "obs/probes.h"
#include "vm/tlb.h"

namespace smtos {

class SnapImages;

/**
 * An in-flight instruction: the hot record every stage touches. Its
 * recovery checkpoint (UopCheckpoint, ~760 bytes) lives beside the
 * window at the same ring position, so the stages move ~120 bytes per
 * uop instead of ~880.
 */
struct Uop
{
    const Instr *instr = nullptr;
    Addr pc = 0;
    Addr vaddr = 0;   ///< data address (mem ops)
    Addr paddr = 0;   ///< translated data address when known
    Mode mode = Mode::User;
    std::int16_t tag = -1; ///< kernel service tag of enclosing function
    ThreadId thread = invalidThread;
    std::uint64_t seq = 0;

    enum class Stage : std::uint8_t { Fetched, Issued, Done, };
    Stage stage = Stage::Fetched;

    bool wrongPath = false;
    bool serializing = false;
    bool mispredicted = false; ///< direction mispredict: wrong-path fetch
    bool redirectOnly = false; ///< target mispredict: fetch held, no squash
    bool hasCheckpoint = false;
    bool isCondBranch = false;
    bool predTaken = false;
    bool actualTaken = false;
    bool trapDtlb = false;     ///< correct-path DTLB miss: trap at resolve
    std::uint8_t destType = 0; ///< 0 none, 1 int, 2 fp
    /** Occupies the FP issue queue (else the int queue); decided once
     *  at fetch so fetch, issue, squash and commit agree. */
    bool fpQueue = false;

    Cycle eligibleAt = 0;
    Cycle doneAt = 0;
    Cycle drainAt = 0;         ///< store-buffer drain completion (stores)

    /** Producer uop seqs bound at rename (0 = no dependence). */
    std::uint64_t depA = 0;
    std::uint64_t depB = 0;
    /**
     * Ring positions of the producers at bind time. Positions are
     * revalidated against the occupant's seq before use, so a slot
     * reused after a squash (or long since committed) reads as "no
     * longer pending" — exactly the semantics a per-context
     * pendingDone map would give, without the hash lookup.
     */
    std::uint64_t depAPos = 0;
    std::uint64_t depBPos = 0;
};

static_assert(sizeof(Uop) <= 128, "the hot uop record stays two lines");

/** Recovery state of a uop with hasCheckpoint: where a mispredict or a
 *  DTLB trap rewinds the fetch cursor, RAS and global history. */
struct UopCheckpoint
{
    Cursor cursor;
    Ras::Checkpoint ras{0, 0};
    std::uint64_t ghr = 0;
};

/**
 * One architecturally committed instruction, as reported to a
 * RetireObserver. This is the record the co-simulation oracle diffs
 * against the functional reference model.
 */
struct RetireEvent
{
    Cycle cycle = 0;
    CtxId ctx = invalidCtx;
    ThreadId thread = invalidThread;
    std::uint64_t seq = 0;
    Addr pc = 0;
    const Instr *instr = nullptr;
    Mode mode = Mode::User;
    std::int16_t tag = -1;       ///< kernel service tag, -1 for user
    Addr vaddr = 0;              ///< memory ops only
    Addr paddr = 0;              ///< translated address when known
    bool isCondBranch = false;
    bool taken = false;          ///< resolved direction (cond branches)
    std::uint64_t destValue = 0; ///< refvalue.h value model (0: none)
};

/**
 * Observer of the architectural (retired) instruction stream.
 *
 * onRetire fires for every committed instruction, in commit order.
 * onThreadStateSync fires whenever software outside the pipeline (the
 * OS model, or the pipeline's own trap vectoring) rewrote a thread's
 * functional state: every retirement of that thread with
 * seq >= firstSeq executes from the state captured at the call, while
 * retirements with smaller seq (instructions already in flight) still
 * belong to the previous state.
 */
class RetireObserver
{
  public:
    virtual ~RetireObserver() = default;
    virtual void onRetire(const RetireEvent &e) = 0;
    virtual void onThreadStateSync(const ThreadState &t,
                                   std::uint64_t firstSeq) = 0;
};

/** The SMT/superscalar core. */
class Pipeline
{
  public:
    Pipeline(const CoreParams &params, Hierarchy &hier,
             const CodeImage *kernel_image);
    ~Pipeline();

    /** The OS model must be attached before the first cycle. */
    void setOs(OsCallbacks *os) { os_ = os; }

    /**
     * Attach (or detach, with nullptr) the observability hub. When
     * null (the default), every probe site is one not-taken branch;
     * attaching never changes simulated behavior or metrics.
     */
    void setProbes(Probes *p) { probes_ = p; }
    Probes *probes() const { return probes_; }

    /** Bind a software thread to a hardware context. The context must
     *  be drained (no in-flight uops) unless it never ran. */
    void bindThread(CtxId ctx, ThreadState *t);

    /** Advance one cycle. */
    void cycle();

    /**
     * Switch execution fidelity (DESIGN.md §15). Switching to
     * Functional first drains all in-flight work (detailed cycles
     * with fetch suppressed), so the functional engine starts from
     * committed architectural state; switching back to Detailed is
     * immediate — the functional engine leaves nothing in flight.
     * Both directions preserve the retired-stream contract, so an
     * attached co-simulation oracle stays clean across switches.
     */
    void setFidelity(Fidelity f);
    Fidelity fidelity() const { return fidelity_; }
    /** Functional-engine instructions, cycles and switches (lifetime). */
    const FidelityStats &fidelityStats() const { return fidelityStats_; }

    /**
     * The stepping loop. Advance every core of @p chip in lockstep,
     * one chip cycle at a time, until @p n more instructions retire
     * chip-wide. When every core is quiescent the clock jumps to the
     * earliest event horizon, clamped at the 200k-cycle no-progress
     * panic boundary so a wedged chip aborts at the same cycle as the
     * ticked loop. A one-core chip is the same loop over one pipeline.
     */
    static void stepInstrs(std::span<Pipeline *const> chip,
                           std::uint64_t n);
    /** stepInstrs' cycle-bounded twin: run @p chip for @p n cycles. */
    static void stepCycles(std::span<Pipeline *const> chip, Cycle n);

    /** Run this pipeline alone until @p n more instructions commit. */
    void runInstrs(std::uint64_t n);

    /** Run this pipeline alone for @p n cycles. */
    void runCycles(Cycle n);

    /**
     * Enable/disable quiescence fast-forward (default on). When every
     * context is stalled and no pipeline event can fire before the
     * next wakeup, the stepping loop jumps the clock to the event
     * horizon instead of ticking idle cycles, with every counter
     * (cycles, zero-fetch/issue, samplers, profiler slot attribution)
     * accounted exactly as the ticked loop would have.
     */
    void setFastForward(bool on) { fastForward_ = on; }
    bool fastForward() const { return fastForward_; }
    /** Idle cycles this pipeline object skipped by quiescence
     *  fast-forward: a host metric, so no artifact carries it (a
     *  resumed pipeline counts from zero). */
    std::uint64_t fastForwardedCycles() const { return ffCycles_; }

    Cycle now() const { return now_; }

    Context &ctx(CtxId id) { return ctxs_[static_cast<size_t>(id)]; }
    int numContexts() const { return static_cast<int>(ctxs_.size()); }

    /**
     * Chip identity: place this core at @p core with its contexts
     * occupying global ids [gid_base, gid_base + numContexts). The
     * default (core 0, base 0) makes gid == id.
     */
    void
    setCoreId(int core, CtxId gid_base)
    {
        for (std::size_t i = 0; i < ctxs_.size(); ++i) {
            ctxs_[i].core = core;
            ctxs_[i].gid = gid_base + static_cast<CtxId>(i);
        }
    }

    /**
     * Share one chip-wide uop sequence counter across cores so the
     * retired-stream contract (per-thread seq monotonicity) survives
     * cross-core migration. A bare pipeline keeps its own counter.
     */
    void setSharedSeq(std::uint64_t *counter) { seqPtr_ = counter; }

    /** Raise a device interrupt on a context (delivered after drain). */
    void raiseInterrupt(CtxId id, std::uint16_t vector);

    CoreStats &stats() { return stats_; }
    const CoreStats &stats() const { return stats_; }

    McFarling &predictor() { return mcf_; }
    Btb &btb() { return btb_; }
    Tlb &itlb() { return itlb_; }
    Tlb &dtlb() { return dtlb_; }
    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }
    Hierarchy &hierarchy() { return *hier_; }

    const CoreParams &params() const { return params_; }
    const CodeImage *kernelImage() const { return kernelImage_; }

    /** Table 9 mode: privileged branches bypass predictor and BTB. */
    void setFilterPrivilegedBranches(bool on) { filterPrivBr_ = on; }

    /** Table 4 application-only mode: TLB misses refill instantly
     *  (no handler code, no trap), via OsCallbacks::magicTranslate. */
    void setAppOnlyTlb(bool on) { appOnlyTlb_ = on; }

    /**
     * Attach (or detach, with nullptr) the retired-stream observer.
     * Attach before the first thread binds so the observer sees every
     * state sync from the start of time.
     */
    void setRetireObserver(RetireObserver *o) { obs_ = o; }
    RetireObserver *retireObserver() const { return obs_; }

    /**
     * The OS model rewrote @p t's functional state outside a pipeline
     * callback (e.g. the context-switch frame push in switchTo).
     * Forwards a state sync to the observer; cheap no-op otherwise.
     */
    void
    noteOsStateSync(ThreadState &t)
    {
        if (obs_)
            obs_->onThreadStateSync(t, *seqPtr_);
    }

    /**
     * Test-only fault injection: corrupt the PC of the @p nth retired
     * instruction as reported to the observer (the simulation itself
     * is untouched). The co-simulation suite uses this to prove the
     * oracle actually catches wrong results. 0 disarms.
     */
    void injectRetireFault(std::uint64_t nth) { faultAtRetire_ = nth; }

    /**
     * Check core structural invariants: instruction conservation
     * (fetched = squashed + retired + in flight), the scheduler state
     * and the occupancy counters against the windows they are derived
     * from (waiting lists, completions, issue-queue and rename-register
     * occupancy, the branch hold), and the structure limits. Returns an
     * empty string when everything holds, else a description of every
     * violation found.
     */
    std::string auditInvariants() const;

    /** Dump per-context architectural state for the crash bundle. */
    void dumpState(std::ostream &os) const;

    // --- snapshot/restore (src/snap) ---
    static constexpr std::uint32_t snapVersion = 4;
    /**
     * All mutable pipeline state. On load @p threadById resolves
     * serialized thread ids to the rebuilt ThreadStates (the kernel
     * section restores before this one).
     */
    template <typename Ar>
    void snap(Ar &ar, const SnapImages &images,
              const std::function<ThreadState *(ThreadId)> &threadById);
    /**
     * Re-emit an onThreadStateSync(t, 0) for every bound context after
     * a restore: the restored architectural state is the committed
     * state, and restored in-flight uops (seq < nextSeq_) retire
     * sequentially on top of it.
     */
    void resyncThreads();

  private:
    ImageSet imagesFor(const ThreadState &t) const
    {
        return ImageSet{t.userImage, kernelImage_};
    }

    /** Issue-queue class: FP operations and uops that write an FP
     *  register wait in the FP queue, everything else in the int
     *  queue. */
    static bool
    usesFpQueue(const Instr &in)
    {
        return isFpReg(in.dest) || in.op == Op::FpAdd ||
               in.op == Op::FpMul;
    }

    /** @p c's window holds as many uops as a context may have in
     *  flight. */
    bool
    windowFull(const Context &c) const
    {
        return q_[static_cast<size_t>(c.id)].size() >=
               static_cast<std::size_t>(params_.maxInflightPerCtx);
    }
    bool canFetch(const Context &c) const;
    void fetchStage();
    /**
     * What one fetchFrom() call took, and the slot cause its stop is
     * charged to. A run that ended at a taken branch or used up its
     * budget stops at Fragmentation; a full window stops at
     * WindowFull. The profiler refines those two with what only the
     * whole cycle shows (profileFetchSlots).
     */
    struct FetchRun
    {
        int fetched = 0;
        SlotCause stop = SlotCause::Fragmentation;
    };
    FetchRun fetchFrom(Context &c, int budget);
    /**
     * Issue considers only the oldest issueWindow waiting uops of
     * each context per cycle (DESIGN.md §3): a ready uop behind them
     * waits. A modelled limit, so it shapes simulated results.
     */
    static constexpr std::size_t issueWindow = 24;
    void issueStage();
    void executeStage();
    void commitStage();

    /** Squash all uops of @p c with seq >= @p from_seq. */
    void squashTail(Context &c, std::uint64_t from_seq);

    /**
     * True when no stage can do work this coming cycle or any cycle
     * until an external event (uop completion, fetch wakeup, OS
     * event): no unissued uops, no completed-but-uncommitted uops, no
     * deliverable interrupts, and no context able to fetch.
     */
    bool quiescent() const;
    /**
     * Earliest future cycle at which anything can happen: the minimum
     * over in-flight completion times, fetch wakeups, and the OS
     * model's next scheduled event. Drops stale completions from the
     * top of the heap first.
     */
    Cycle nextEventHorizon();
    /**
     * When every core of @p chip is quiescent, jump the clock forward
     * so the next cycle() lands on min(earliest horizon, @p limit),
     * batch-accounting the skipped idle cycles bit-identically to the
     * ticked loop.
     */
    static void skipToHorizon(std::span<Pipeline *const> chip,
                              Cycle limit);
    /** Account @p k skipped idle cycles exactly as k ticks would. */
    void skipIdleCycles(Cycle k);

    /** Charge this cycle's unused fetch slots to one (cause,ctx,tag);
     *  @p stop is the last picked context's. */
    void profileFetchSlots(
        const std::vector<std::pair<int, CtxId>> &cands, int picked,
        int lost, SlotCause stop);
    /**
     * Charge @p lost fetch slots to @p cause at context @p charged, or,
     * with no context named, as zero-fetch cycles: to the blocked
     * context with the most specific cause. Spin-lock code is charged
     * as KernelSync.
     */
    void chargeFetchLost(CycleProfiler &prof, std::uint64_t lost,
                         CtxId charged = invalidCtx,
                         SlotCause cause = SlotCause::Fragmentation) const;
    /** Why a context that produced no fetch candidate is blocked. */
    SlotCause fetchBlockCause(const Context &c) const;
    /** Window-full refinement: stalled behind an in-flight load? */
    SlotCause windowCause(const Context &c) const;
    /** Kernel service tag at the context's cursor (-1: user code). */
    int currentServiceTag(const Context &c) const;

    void releaseUop(const Uop &u);
    /** @p u leaves the issue queue: it issued, was squashed unissued,
     *  or committed as a serializing head. */
    void leaveIssueQueue(Context &c, const Uop &u);
    void commitUop(Context &c, Uop &u);

    // --- the architectural rules (DESIGN.md §15): the detailed stages
    // and the functional engine both execute these, and differ only in
    // timing and recovery. The per-instruction ones are defined inline
    // below the class, so both translation units inline them. ---

    /**
     * Translate the fetch PC @p pc of @p t in cursor mode @p m. PAL
     * code and kernel text execute from the unmapped KSEG region on
     * Alpha: physical fetch, no ITLB involvement. Other code goes
     * through the ITLB, which application-only mode refills at once.
     * Returns false on an ITLB miss, having done only the lookup.
     */
    bool translateFetch(const Context &c, ThreadState &t, Mode m,
                        Addr pc, Addr &paddr);
    /**
     * Translate the data address @p vaddr of @p in for @p who:
     * physical-address ops bypass the DTLB, which application-only
     * mode refills at once. Returns false on a DTLB miss, having done
     * only the lookup.
     */
    bool translateData(ThreadState &t, const Instr &in, Addr vaddr,
                       const AccessInfo &who, Addr &paddr);
    /**
     * Enter the OS's software refill for an ITLB miss at @p pc, or for
     * a correct-path DTLB miss at @p vaddr. Recovery is the caller's:
     * the detailed core restores a checkpoint and stalls fetch, the
     * functional engine arms the replay and ends the context's turn.
     */
    void itlbTrap(const Context &c, ThreadState &t, Addr pc);
    void dtlbTrap(const Context &c, ThreadState &t, Addr vaddr);
    /**
     * After an OS call rewrote @p t on context @p c (and may have
     * context-switched): both @p t and the thread now bound to @p c
     * are authoritative again, so re-sync them with the observer.
     */
    void syncAfterOs(const Context &c, ThreadState &t);
    /** A pending interrupt is delivered once its context drained. */
    bool
    interruptDue(const Context &c) const
    {
        return c.interruptPending && c.hasThread() &&
               q_[static_cast<size_t>(c.id)].empty();
    }
    /** Deliver @p c's pending interrupt; interruptDue(c) holds. */
    void deliverInterrupt(Context &c);
    /** Table 9 mode: privileged branches bypass predictor and BTB. */
    bool
    filteredBranch(Mode m) const
    {
        return filterPrivBr_ && m != Mode::User;
    }
    /**
     * Train the BTB and the predictor's tables on the correct-path
     * branch @p bp at @p pc (not a filtered one). Returns the BTB
     * lookup, which the detailed core's redirect timing reads.
     */
    BtbResult trainBranch(const BranchPreview &bp, Addr pc,
                          const AccessInfo &who);
    /**
     * Count a retirement of @p in in @p mode into the paper's counters
     * (mode, service tag, mix, physical refs, conditional branches)
     * and @p t's retired count.
     */
    void countRetired(ThreadState &t, const Instr &in, Mode mode,
                      std::int16_t tag, bool cond, bool taken);
    /**
     * Report a counted retirement to the observer (with the test-only
     * fault hook) and the probes. @p e arrives without its cycle,
     * context and destination value. Call only when either is
     * attached.
     */
    void reportRetired(const Context &c, RetireEvent e);

    // --- functional (warming-only) engine: core/funccore.cc ---
    /** One functional cycle: interrupt delivery + a fetch-width batch
     *  of architectural steps round-robined across contexts. */
    void funcCycle();
    /** Execute one instruction of @p c architecturally. @p lastLine
     *  is the L1I line the context's turn last warmed (~0 at the turn's
     *  start). Returns 1 (retired, may continue), 2 (retired-or-trapped
     *  into the OS, end this context's turn), or 0 (cannot execute). */
    int funcStep(Context &c, Addr &lastLine);
    /** Run detailed cycles with fetch suppressed until nothing is in
     *  flight (the functional-switch handover point). */
    void drainForFidelitySwitch();

    CoreParams params_;
    Hierarchy *hier_;
    const CodeImage *kernelImage_;
    OsCallbacks *os_ = nullptr;
    RetireObserver *obs_ = nullptr;
    Probes *probes_ = nullptr;
    std::uint64_t faultAtRetire_ = 0;

    std::vector<Context> ctxs_;
    /** Per-context instruction windows (program order, front=oldest). */
    std::vector<FixedRing<Uop>> q_;
    /** Per-context recovery checkpoints, slot-parallel to q_. */
    std::vector<std::vector<UopCheckpoint>> cps_;
    UopCheckpoint &
    checkpointAt(std::size_t ctx, std::uint64_t pos)
    {
        return cps_[ctx][q_[ctx].slotOf(pos)];
    }
    /**
     * Rename state per context: last writer seq of each architectural
     * register plus the ring position that writer occupies. Binding
     * readers to producer (seq, pos) pairs at fetch models register
     * renaming (no false WAW/WAR dependences through architectural
     * names); readiness is read straight off the producer's ring slot.
     */
    std::vector<std::array<std::uint64_t, numIntRegs + numFpRegs>>
        writerSeq_;
    std::vector<std::array<std::uint64_t, numIntRegs + numFpRegs>>
        writerPos_;

    // --- state derived from the windows (DESIGN.md §10): never
    // serialized; restore recounts it from the windows ---

    /** An unissued, non-serializing uop waiting to issue. */
    struct Waiting
    {
        std::uint64_t pos; ///< ring position
        /** It cannot issue before this cycle; ~0 (parked) while the
         *  producer at parkedOn is unissued, until that one issues. */
        Cycle notBefore;
        std::uint64_t parkedOn = 0;
    };
    /** Per-context waiting uops, program order (positions ascend). */
    std::vector<std::vector<Waiting>> waiting_;
    /**
     * Per-context cycle before which the issue stage may skip the
     * context: when it exceeds the cycle, no entry in the context's
     * issue window is due.
     */
    std::vector<Cycle> waitDue_;
    /** The uop at @p pos issued, completing at @p at: entries of
     *  @p ctx's window from index @p first on parked on it wake. */
    void wake(std::size_t ctx, std::size_t first, std::uint64_t pos,
              Cycle at);

    /** An issued uop's completion. Entries of uops squashed after
     *  issue go stale and are dropped when they surface. */
    struct Completion
    {
        Cycle doneAt;
        CtxId ctx;
        std::uint64_t seq;
        std::uint64_t pos;
    };
    /** Every issued uop's completion: a min-heap on doneAt. */
    std::vector<Completion> completions_;
    /** Scratch: the completions one execute stage resolves. */
    std::vector<Completion> dueNow_;
    bool
    live(const Completion &d) const
    {
        const FixedRing<Uop> &q = q_[static_cast<size_t>(d.ctx)];
        return q.livePos(d.pos) && q.atPos(d.pos).seq == d.seq;
    }
    void pushCompletion(const Completion &d);
    void popCompletion();
    /** Per-context wait-for-branch-resolve fetch hold: the seq of the
     *  window's unresolved target mispredict (0 = none). */
    std::vector<std::uint64_t> waitBranch_;
    /** Rename registers and issue-queue entries in use, by class:
     *  counts over the windows, kept current for fetch's limit
     *  checks. */
    int intRegsUsed_ = 0;
    int fpRegsUsed_ = 0;
    int unissuedInt_ = 0;
    int unissuedFp_ = 0;

    /** Scratch candidate lists, members so steady state never mallocs. */
    std::vector<std::pair<int, CtxId>> fetchCands_;
    struct IssueCand
    {
        std::uint64_t seq;
        CtxId ctx;
        std::uint64_t pos;
    };
    std::vector<IssueCand> issueCands_;

    McFarling mcf_;
    Btb btb_;
    Tlb itlb_;
    Tlb dtlb_;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 1;
    /** Points at nextSeq_ (a bare pipeline) or the chip-wide
     *  counter (System). */
    std::uint64_t *seqPtr_ = &nextSeq_;
    bool filterPrivBr_ = false;
    bool appOnlyTlb_ = false;
    bool fastForward_ = true;
    std::uint64_t ffCycles_ = 0;

    Fidelity fidelity_ = Fidelity::Detailed;
    /** Fetch suppressed while draining for a fidelity switch. */
    bool draining_ = false;
    FidelityStats fidelityStats_;

    CoreStats stats_;
};

inline bool
Pipeline::translateFetch(const Context &c, ThreadState &t, Mode m,
                         Addr pc, Addr &paddr)
{
    if (m == Mode::Pal || (m != Mode::User && pc >= kernelBase)) {
        paddr = pc - kernelBase;
        return true;
    }
    const Addr vpn = pageOf(pc);
    const Asn asn = t.space->asn();
    const AccessInfo who{t.id, m, c.id};
    const std::int64_t frame = itlb_.lookup(vpn, asn, who);
    if (frame >= 0) {
        paddr = PhysMem::frameAddr(static_cast<Frame>(frame)) +
                pageOffset(pc);
        return true;
    }
    if (!appOnlyTlb_)
        return false;
    paddr = os_->magicTranslate(t, pc, true);
    itlb_.insert(vpn, asn, paddr >> pageShift, who, pc >= kernelBase);
    return true;
}

inline bool
Pipeline::translateData(ThreadState &t, const Instr &in, Addr vaddr,
                        const AccessInfo &who, Addr &paddr)
{
    if (in.isPhysMem()) {
        paddr = vaddr;
        return true;
    }
    const std::int64_t frame =
        dtlb_.lookup(pageOf(vaddr), t.space->asn(), who);
    if (frame >= 0) {
        paddr = PhysMem::frameAddr(static_cast<Frame>(frame)) +
                pageOffset(vaddr);
        return true;
    }
    if (!appOnlyTlb_)
        return false;
    paddr = os_->magicTranslate(t, vaddr, false);
    dtlb_.insert(pageOf(vaddr), t.space->asn(), paddr >> pageShift, who,
                 vaddr >= kernelBase);
    return true;
}

inline BtbResult
Pipeline::trainBranch(const BranchPreview &bp, Addr pc,
                      const AccessInfo &who)
{
    using Kind = BranchPreview::Kind;
    if (bp.kind == Kind::Ret || bp.kind == Kind::PalRet)
        return {}; // the RAS predicts returns
    const BtbResult br = btb_.lookup(pc, who);
    if (bp.kind == Kind::Cond) {
        mcf_.train(pc, bp.taken);
        if (!bp.taken)
            return br;
    } else if (bp.kind == Kind::Indirect && br.hit &&
               br.target != bp.targetPc) {
        btb_.noteWrongTarget();
    }
    btb_.update(pc, bp.targetPc, who);
    return br;
}

inline void
Pipeline::countRetired(ThreadState &t, const Instr &in, Mode mode,
                       std::int16_t tag, bool cond, bool taken)
{
    ++stats_.retired[static_cast<int>(mode)];
    if (tag >= 0 && tag < 64)
        ++stats_.retiredByTag[tag];
    const int cls = mode == Mode::User ? 0 : 1;
    ++stats_.mix[cls][static_cast<int>(in.mixClass())];
    if (in.isPhysMem())
        ++stats_.physMem[cls][in.isStore() ? 1 : 0];
    if (cond) {
        ++stats_.condRetired[cls];
        if (taken)
            ++stats_.condTaken[cls];
    }
    t.cursor.retired++;
}

} // namespace smtos

#endif // SMTOS_CORE_PIPELINE_H
