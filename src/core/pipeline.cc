#include "core/pipeline.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

#include "common/logging.h"
#include "common/trace.h"
#include "kernel/tags.h"
#include "obs/profiler.h"
#include "ref/refvalue.h"

namespace smtos {

namespace {

/** A cycle that never comes: a parked waiting entry's notBefore. */
constexpr Cycle never = ~Cycle{0};

/** Hold @p c's fetch until @p until, charging its slots to @p why. */
void
stallFetch(Context &c, Cycle until, SlotCause why)
{
    c.fetchResumeAt = until;
    c.stallReason = why;
}

} // namespace

Pipeline::Pipeline(const CoreParams &params, Hierarchy &hier,
                   const CodeImage *kernel_image)
    : params_(params), hier_(&hier), kernelImage_(kernel_image),
      itlb_("ITLB", params.itlbEntries),
      dtlb_("DTLB", params.dtlbEntries)
{
    smtos_assert(params_.numContexts >= 1);
    ctxs_.resize(static_cast<size_t>(params_.numContexts));
    q_.resize(ctxs_.size());
    cps_.resize(ctxs_.size());
    waiting_.resize(ctxs_.size());
    waitDue_.assign(ctxs_.size(), never);
    waitBranch_.assign(ctxs_.size(), 0);
    writerSeq_.resize(ctxs_.size());
    writerPos_.resize(ctxs_.size());
    for (size_t i = 0; i < ctxs_.size(); ++i) {
        ctxs_[i].id = static_cast<CtxId>(i);
        ctxs_[i].gid = static_cast<CtxId>(i);
        ctxs_[i].ras = Ras(params_.rasDepth);
        writerSeq_[i].fill(0);
        writerPos_[i].fill(0);
        q_[i].init(static_cast<size_t>(params_.maxInflightPerCtx));
        cps_[i].resize(q_[i].capacity());
        waiting_[i].reserve(q_[i].capacity());
    }
    fetchCands_.reserve(ctxs_.size());
    issueCands_.reserve(
        static_cast<size_t>(params_.intQueue + params_.fpQueue));
    completions_.reserve(ctxs_.size() * q_.front().capacity());
    dueNow_.reserve(completions_.capacity());
    // Trace lines read the cycle straight from this counter, so
    // emissions between ticks (OS hooks, tests) carry the live cycle
    // rather than a stale per-tick copy.
    Trace::setClock(&now_);
}

Pipeline::~Pipeline()
{
    if (Trace::clock() == &now_)
        Trace::setClock(nullptr);
}

void
Pipeline::bindThread(CtxId id, ThreadState *t)
{
    smtos_assert(q_[static_cast<size_t>(id)].empty());
    ctx(id).thread = t;
    writerSeq_[static_cast<size_t>(id)].fill(0);
    writerPos_[static_cast<size_t>(id)].fill(0);
    if (obs_ && t)
        obs_->onThreadStateSync(*t, *seqPtr_);
}

void
Pipeline::raiseInterrupt(CtxId id, std::uint16_t vector)
{
    Context &c = ctx(id);
    c.interruptPending = true;
    c.interruptVector = vector;
}

bool
Pipeline::canFetch(const Context &c) const
{
    if (draining_)
        return false;
    if (!c.hasThread() || c.interruptPending)
        return false;
    if (now_ < c.fetchResumeAt)
        return false;
    if (waitBranch_[static_cast<size_t>(c.id)] != 0)
        return false;
    if (c.thread->cursor.stuck())
        return false;
    return !windowFull(c);
}

Pipeline::FetchRun
Pipeline::fetchFrom(Context &c, int budget)
{
    ThreadState &t = *c.thread;
    const ImageSet is = imagesFor(t);
    Cursor &cur = t.cursor;
    int n = 0;
    // The line this call last read. A context fetches at most once a
    // cycle, so every cycle's first fetch reads the cache again.
    Addr last_line = ~Addr{0};

    while (n < budget) {
        if (cur.stuck())
            return {n, cur.wrongPath() ? SlotCause::SquashRecovery
                                       : SlotCause::Serialize};
        const Mode cursor_mode = cur.mode(is);
        const Mode stat_mode =
            (t.isIdleThread && cursor_mode != Mode::User)
                ? Mode::Idle
                : cursor_mode;
        const Addr pc = cur.currentPc(is);

        // Instruction cache, one access per line touched.
        const Addr line = hier_->l1i().blockOf(pc);
        if (line != last_line) {
            Addr paddr = 0;
            if (!translateFetch(c, t, cursor_mode, pc, paddr)) {
                if (cur.wrongPath()) {
                    // Speculative fetch down a wrong path hit an
                    // unmapped page: stall until the mispredicted
                    // branch squashes us.
                    cur.setStuck(true);
                    return {n, SlotCause::SquashRecovery};
                }
                itlbTrap(c, t, pc);
                stallFetch(c, now_ + 1, SlotCause::TlbRefill);
                return {n, SlotCause::TlbRefill};
            }
            AccessInfo who{t.id, cursor_mode, c.id};
            MemResult r = hier_->fetch(paddr, who, now_);
            if (!r.l1Hit) {
                stallFetch(c, r.readyAt, SlotCause::IcacheMiss);
                return {n, SlotCause::IcacheMiss};
            }
            last_line = line;
        }

        // Shared resources: issue queues and renaming registers.
        if (unissuedInt_ >= params_.intQueue ||
            unissuedFp_ >= params_.fpQueue)
            return {n, SlotCause::IqFull};
        if (intRegsUsed_ >= params_.intRenameRegs ||
            fpRegsUsed_ >= params_.fpRenameRegs)
            return {n, SlotCause::RenameFull};
        if (windowFull(c))
            return {n, SlotCause::WindowFull};

        const Instr &in = cur.currentInstr(is);
        const std::size_t ci = static_cast<size_t>(c.id);
        FixedRing<Uop> &rq = q_[ci];
        const std::uint64_t pos = rq.tailPos();
        Uop u;
        u.instr = &in;
        u.pc = pc;
        u.mode = stat_mode;
        u.thread = t.id;
        u.seq = (*seqPtr_)++;
        u.wrongPath = cur.wrongPath();
        u.eligibleAt = now_ + params_.issueDelay();
        {
            const CallFrame &f = cur.top();
            if (f.inKernel)
                u.tag = kernelImage_->tagOf(f.func);
        }
        if (in.dest != regNone)
            u.destType = isFpReg(in.dest) ? 2 : 1;
        u.fpQueue = usesFpQueue(in);

        // Rename: bind sources to their producing uops (seq for
        // identity, ring position for O(1) readiness checks).
        {
            auto &ws = writerSeq_[ci];
            auto &wp = writerPos_[ci];
            if (in.srcA != regNone) {
                u.depA = ws[in.srcA];
                u.depAPos = wp[in.srcA];
            }
            if (in.srcB != regNone) {
                u.depB = ws[in.srcB];
                u.depBPos = wp[in.srcB];
            }
            if (in.dest != regNone) {
                ws[in.dest] = u.seq;
                wp[in.dest] = pos;
            }
        }

        bool ends_run = false;

        if (in.isSerializing()) {
            u.serializing = true;
            cur.setStuck(true);
            ends_run = true;
        } else if (in.isBranch()) {
            const bool was_wrong = cur.wrongPath();
            AccessInfo who{t.id, cursor_mode, c.id};
            const bool filtered = filteredBranch(cursor_mode);
            BranchPreview bp = cur.previewBranch(is, t.iprs);
            // The correct path trains the tables; a wrong path only
            // reads the BTB.
            auto consultBtb = [&]() {
                return was_wrong ? btb_.lookup(pc, who)
                                 : trainBranch(bp, pc, who);
            };
            // A taken branch the BTB has no target for: the front end
            // waits out a decode-time redirect bubble.
            auto btbMissBubble = [&]() {
                stallFetch(c, now_ + params_.btbMissPenalty,
                           SlotCause::BranchHold);
            };

            switch (bp.kind) {
              case BranchPreview::Kind::Cond: {
                u.isCondBranch = true;
                u.actualTaken = bp.taken;
                bool pred_taken;
                if (filtered) {
                    pred_taken = bp.taken;
                } else {
                    pred_taken = mcf_.predict(pc);
                    const BtbResult br = consultBtb();
                    if (was_wrong)
                        mcf_.pushHistory(pred_taken);
                    if (pred_taken && !br.hit) {
                        // Predicted taken with no target.
                        btbMissBubble();
                        ends_run = true;
                    }
                }
                u.predTaken = pred_taken;
                if (!was_wrong && pred_taken != bp.taken) {
                    // Direction mispredict: checkpoint the correct
                    // successor, then fetch down the wrong path.
                    u.mispredicted = true;
                    u.hasCheckpoint = true;
                    UopCheckpoint &k = checkpointAt(ci, pos);
                    k.cursor = cur;
                    k.cursor.followBranch(is, bp, bp.taken);
                    k.ras = c.ras.save();
                    k.ghr = mcf_.ghr();
                    cur.setWrongPath(true);
                    cur.followBranch(is, bp, pred_taken);
                } else {
                    cur.followBranch(is, bp,
                                     was_wrong ? pred_taken : bp.taken);
                }
                if (pred_taken)
                    ends_run = true;
                break;
              }
              case BranchPreview::Kind::Jump: {
                if (!filtered && !consultBtb().hit)
                    btbMissBubble();
                cur.followBranch(is, bp, true);
                ends_run = true;
                break;
              }
              case BranchPreview::Kind::Indirect: {
                u.actualTaken = true;
                bool target_ok = true;
                if (!filtered) {
                    const BtbResult br = consultBtb();
                    target_ok = br.hit && br.target == bp.targetPc;
                }
                cur.followBranch(is, bp, true);
                if (!target_ok && !was_wrong) {
                    // Target mispredict: hold fetch until resolve; we
                    // already steered the cursor down the true path,
                    // so no squash will be needed.
                    u.redirectOnly = true;
                    waitBranch_[static_cast<size_t>(c.id)] = u.seq;
                }
                ends_run = true;
                break;
              }
              case BranchPreview::Kind::Call: {
                if (!filtered && !consultBtb().hit)
                    btbMissBubble();
                cur.followBranch(is, bp, true);
                if (!cur.stuck())
                    c.ras.push(cur.parentPc(is));
                ends_run = true;
                break;
              }
              case BranchPreview::Kind::Ret:
              case BranchPreview::Kind::PalRet: {
                const Addr pred_target = c.ras.pop();
                cur.followBranch(is, bp, true);
                if (!was_wrong && pred_target != bp.targetPc &&
                    !filtered) {
                    u.redirectOnly = true;
                    waitBranch_[static_cast<size_t>(c.id)] = u.seq;
                }
                ends_run = true;
                break;
              }
            }
        } else {
            // Straight-line instruction.
            if (in.isMem()) {
                if (!cur.takeRetryVaddr(u.vaddr))
                    u.vaddr = cur.memAddress(in, t.regions, t.iprs);
                if (!u.wrongPath && !in.isPhysMem()) {
                    // Checkpoint post-draw, armed to replay the same
                    // address, so a DTLB trap retries this access
                    // rather than generating a fresh one.
                    u.hasCheckpoint = true;
                    UopCheckpoint &k = checkpointAt(ci, pos);
                    k.cursor = cur;
                    k.cursor.setRetryVaddr(u.vaddr);
                    k.ras = c.ras.save();
                    k.ghr = mcf_.ghr();
                }
            }
            cur.stepSequential(is);
        }

        rq.push_back(u);
        ++c.unissued;
        if (u.fpQueue)
            ++unissuedFp_;
        else
            ++unissuedInt_;
        if (!u.serializing) {
            std::vector<Waiting> &wl = waiting_[ci];
            wl.push_back(Waiting{pos, u.eligibleAt});
            if (wl.size() <= issueWindow)
                waitDue_[ci] = std::min(waitDue_[ci], u.eligibleAt);
        }
        if (u.destType == 1)
            ++intRegsUsed_;
        else if (u.destType == 2)
            ++fpRegsUsed_;
        ++stats_.fetched;
        if (u.wrongPath)
            ++stats_.fetchedWrongPath;
        ++n;
        if (ends_run)
            return {n, u.serializing ? SlotCause::Serialize
                                     : SlotCause::Fragmentation};
    }
    return {n, SlotCause::Fragmentation};
}

void
Pipeline::fetchStage()
{
    int fetchable = 0;
    std::vector<std::pair<int, CtxId>> &cands = fetchCands_;
    cands.clear();
    for (Context &c : ctxs_) {
        if (canFetch(c)) {
            ++fetchable;
            cands.emplace_back(c.unissued, c.id);
        }
    }
    stats_.fetchableContexts.sample(fetchable);

    if (params_.fetchPolicy == FetchPolicy::Icount) {
        std::sort(cands.begin(), cands.end());
    } else {
        // Round-robin: rotate the candidate order each cycle.
        if (!cands.empty())
            std::rotate(cands.begin(),
                        cands.begin() +
                            static_cast<long>(now_ % cands.size()),
                        cands.end());
    }
    int budget = params_.fetchWidth;
    int picked = 0;
    SlotCause stop = SlotCause::Fragmentation;
    for (const auto &[unissued, id] : cands) {
        if (picked >= params_.fetchContexts || budget <= 0)
            break;
        ++picked;
        const FetchRun run = fetchFrom(ctx(id), budget);
        budget -= run.fetched;
        stop = run.stop;
    }
    if (budget == params_.fetchWidth)
        ++stats_.zeroFetchCycles;

    if (probes_ && probes_->profiler())
        profileFetchSlots(cands, picked, budget, stop);
}

namespace {

/**
 * When several blocked contexts could be charged for a zero-fetch
 * cycle, prefer the most specific cause over the catch-alls.
 */
int
causePriority(SlotCause c)
{
    switch (c) {
      case SlotCause::IcacheMiss: return 14;
      case SlotCause::TlbRefill: return 13;
      case SlotCause::DcacheStall: return 12;
      case SlotCause::SquashRecovery: return 11;
      case SlotCause::Serialize: return 10;
      case SlotCause::IntrDrain: return 9;
      case SlotCause::KernelSync: return 8;
      case SlotCause::BranchHold: return 7;
      case SlotCause::WindowFull: return 6;
      case SlotCause::IqFull: return 5;
      case SlotCause::RenameFull: return 4;
      case SlotCause::FetchPortLimit: return 3;
      case SlotCause::Fragmentation: return 2;
      case SlotCause::Idle: return 1;
      case SlotCause::NoThread: return 0;
    }
    return 0;
}

} // namespace

SlotCause
Pipeline::windowCause(const Context &c) const
{
    const auto &rq = q_[static_cast<size_t>(c.id)];
    for (std::size_t i = 0; i < rq.size(); ++i) {
        const Uop &u = rq[i];
        if (u.stage == Uop::Stage::Issued && u.instr->isLoad() &&
            u.doneAt > now_)
            return SlotCause::DcacheStall;
    }
    return SlotCause::WindowFull;
}

SlotCause
Pipeline::fetchBlockCause(const Context &c) const
{
    if (!c.hasThread())
        return SlotCause::NoThread;
    if (c.thread->isIdleThread)
        return SlotCause::Idle;
    if (c.interruptPending)
        return SlotCause::IntrDrain;
    if (now_ < c.fetchResumeAt)
        return c.stallReason;
    if (waitBranch_[static_cast<size_t>(c.id)] != 0)
        return SlotCause::BranchHold;
    if (c.thread->cursor.stuck())
        return c.thread->cursor.wrongPath() ? SlotCause::SquashRecovery
                                            : SlotCause::Serialize;
    if (windowFull(c))
        return windowCause(c);
    return SlotCause::Fragmentation;
}

int
Pipeline::currentServiceTag(const Context &c) const
{
    if (!c.hasThread())
        return -1;
    const Cursor &cur = c.thread->cursor;
    if (!cur.valid())
        return -1;
    const CallFrame &f = cur.top();
    if (!f.inKernel)
        return -1;
    return kernelImage_->tagOf(f.func);
}

void
Pipeline::profileFetchSlots(
    const std::vector<std::pair<int, CtxId>> &cands, int picked,
    int lost, SlotCause stop)
{
    CycleProfiler *prof = probes_->profiler();
    prof->fetchUsed(params_.fetchWidth - lost);
    if (lost <= 0)
        return;

    CtxId charged = invalidCtx;
    if (picked > 0) {
        // Some context got fetch slots; the last one picked is the one
        // that stopped short, so charge the remainder to its stop,
        // refined by what only the whole cycle shows.
        charged = cands[static_cast<size_t>(picked - 1)].second;
        if (stop == SlotCause::WindowFull) {
            stop = windowCause(ctxs_[static_cast<size_t>(charged)]);
        } else if (stop == SlotCause::Fragmentation &&
                   static_cast<int>(cands.size()) > picked) {
            // The run ended (or the port budget ran out) with fetch
            // still healthy, and more candidates waited: the 2-port
            // limit bound us rather than run fragmentation.
            stop = SlotCause::FetchPortLimit;
        }
    }
    chargeFetchLost(*prof, static_cast<std::uint64_t>(lost), charged,
                    stop);
}

void
Pipeline::chargeFetchLost(CycleProfiler &prof, std::uint64_t lost,
                          CtxId charged, SlotCause cause) const
{
    if (charged == invalidCtx) {
        // Zero-fetch cycle: every context is blocked; charge the
        // highest-priority blocked cause.
        int best = -1;
        for (const Context &c : ctxs_) {
            const SlotCause bc = fetchBlockCause(c);
            const int pr = causePriority(bc);
            if (pr > best) {
                best = pr;
                cause = bc;
                charged = c.id;
            }
        }
    }
    const Context &c = ctxs_[static_cast<size_t>(charged)];
    const int tag = currentServiceTag(c);
    if (tag == TagSpin)
        cause = SlotCause::KernelSync;
    prof.fetchLost(cause, lost, c.gid, tag);
}

namespace {

/**
 * The producer bound at rename as (@p dep, @p pos), or null when that
 * dependence is resolved. Readiness is read straight off the
 * producer's ring slot: a dead position (committed, squashed, or
 * reused by a later uop) means the producer is no longer pending —
 * committed producers are ready, and a squashed producer's consumer
 * is doomed anyway.
 */
const Uop *
pendingProducer(const FixedRing<Uop> &rq, std::uint64_t dep,
                std::uint64_t pos)
{
    if (dep == 0 || !rq.livePos(pos))
        return nullptr;
    const Uop &p = rq.atPos(pos);
    return p.seq == dep ? &p : nullptr;
}

/**
 * The earliest cycle @p u can issue, judged from its producers' state
 * now: its eligibility or its latest producer's completion, or never
 * while a producer is unissued — @p parked_on then names that
 * producer's position, and @p u parks until it issues. (A serializing
 * producer never issues, but nothing younger than it enters its
 * window before it commits: fetch stops behind it.)
 */
Cycle
readyAt(const FixedRing<Uop> &rq, const Uop &u, std::uint64_t &parked_on)
{
    Cycle at = u.eligibleAt;
    for (const auto &[dep, pos] : {std::pair{u.depA, u.depAPos},
                                   std::pair{u.depB, u.depBPos}}) {
        const Uop *p = pendingProducer(rq, dep, pos);
        if (!p)
            continue;
        if (p->stage == Uop::Stage::Fetched) {
            parked_on = pos;
            return never;
        }
        at = std::max(at, p->doneAt);
    }
    return at;
}

/** Completion-heap order: earliest doneAt on top. */
constexpr auto laterDone = [](const auto &a, const auto &b) {
    return a.doneAt > b.doneAt;
};

} // namespace

void
Pipeline::wake(std::size_t ctx, std::size_t first, std::uint64_t pos,
               Cycle at)
{
    // Parked entries only ever sit in the window: an entry is first
    // evaluated there, and it only moves toward the front.
    std::vector<Waiting> &wl = waiting_[ctx];
    const std::size_t n = std::min(wl.size(), issueWindow);
    for (std::size_t i = first; i < n; ++i)
        if (wl[i].notBefore == never && wl[i].parkedOn == pos)
            wl[i].notBefore = at;
}

void
Pipeline::pushCompletion(const Completion &d)
{
    completions_.push_back(d);
    std::push_heap(completions_.begin(), completions_.end(),
                   laterDone);
}

void
Pipeline::popCompletion()
{
    std::pop_heap(completions_.begin(), completions_.end(),
                  laterDone);
    completions_.pop_back();
}

void
Pipeline::issueStage()
{
    int int_left = params_.intUnits;
    int mem_left = params_.memUnits;
    int fp_left = params_.fpUnits;
    int ports_left = params_.dcachePorts;

    CycleProfiler *prof = probes_ ? probes_->profiler() : nullptr;
    bool sawFuBlocked = false;
    bool sawMemWait = false;
    bool sawDepWait = false;

    // Gather ready candidates from each context's issue window, then
    // issue oldest-first across contexts. Entries (and whole
    // contexts) whose cached cycle has not come are skipped; with a
    // profiler attached every examined entry is evaluated instead, so
    // the dep-wait/mem-wait attribution sees each one.
    std::vector<IssueCand> &cands = issueCands_;
    cands.clear();
    for (Context &c : ctxs_) {
        const std::size_t ci = static_cast<size_t>(c.id);
        std::vector<Waiting> &wl = waiting_[ci];
        if (wl.empty() || (!prof && waitDue_[ci] > now_))
            continue;
        const FixedRing<Uop> &rq = q_[ci];
        const std::size_t n = std::min(wl.size(), issueWindow);
        Cycle due = never;
        for (std::size_t i = 0; i < n; ++i) {
            Waiting &w = wl[i];
            if (prof || w.notBefore <= now_) {
                const Uop &u = rq.atPos(w.pos);
                w.notBefore = readyAt(rq, u, w.parkedOn);
                if (w.notBefore <= now_) {
                    cands.push_back(IssueCand{u.seq, c.id, w.pos});
                } else if (prof && u.eligibleAt <= now_) {
                    // Attribution only: is the uop waiting on a
                    // long-latency (memory-like) producer or a
                    // short one still in flight?
                    for (const Uop *p :
                         {pendingProducer(rq, u.depA, u.depAPos),
                          pendingProducer(rq, u.depB, u.depBPos)}) {
                        if (!p)
                            continue;
                        if (p->stage == Uop::Stage::Fetched)
                            sawDepWait = true;
                        else if (p->doneAt > now_)
                            (p->doneAt - now_ <= 2 ? sawDepWait
                                                   : sawMemWait) = true;
                    }
                }
            }
            due = std::min(due, w.notBefore);
        }
        waitDue_[ci] = due;
    }
    std::sort(cands.begin(), cands.end(),
              [](const IssueCand &a, const IssueCand &b) {
                  return a.seq < b.seq;
              });

    int issued = 0;
    for (const IssueCand &cd : cands) {
        const std::size_t ci = static_cast<size_t>(cd.ctx);
        Context &c = ctxs_[ci];
        Uop &u = q_[ci].atPos(cd.pos);
        const Instr &in = *u.instr;
        const bool is_fp = (in.op == Op::FpAdd || in.op == Op::FpMul);
        const bool is_mem = in.isMem();

        if (is_fp) {
            if (fp_left <= 0) {
                sawFuBlocked = true;
                continue;
            }
        } else if (is_mem) {
            if (int_left <= 0 || mem_left <= 0) {
                sawFuBlocked = true;
                continue;
            }
            if (in.isLoad() && ports_left <= 0) {
                sawFuBlocked = true;
                continue;
            }
        } else {
            if (int_left <= 0) {
                sawFuBlocked = true;
                continue;
            }
        }

        // Compute completion time.
        Cycle done = now_ + 1;
        if (is_mem) {
            AccessInfo who{u.thread,
                           u.mode == Mode::Idle ? Mode::Kernel : u.mode,
                           c.id};
            Addr paddr = 0;
            if (translateData(*c.thread, in, u.vaddr, who, paddr)) {
                u.paddr = paddr;
                MemResult r =
                    hier_->data(paddr, who, in.isStore(), now_);
                if (in.isLoad()) {
                    done = r.readyAt;
                    if (prof)
                        prof->loadLatency(done > now_ ? done - now_
                                                      : 0);
                } else {
                    u.drainAt = r.readyAt;
                }
            } else if (u.wrongPath) {
                done = now_ + 20;
            } else {
                // Correct-path miss: precise trap at resolve.
                u.trapDtlb = true;
            }
            if (in.isLoad())
                --ports_left;
            --mem_left;
            --int_left;
        } else if (is_fp) {
            done = now_ + params_.fpLatency;
            --fp_left;
        } else {
            done = now_ + (in.op == Op::IntMul ? params_.intMulLatency
                                               : 1);
            --int_left;
        }

        u.stage = Uop::Stage::Issued;
        u.doneAt = done;
        leaveIssueQueue(c, u);
        ++issued;
        ++stats_.issued;
        pushCompletion(Completion{done, cd.ctx, u.seq, cd.pos});
        // Leave the waiting list (the next waiting uop slides into
        // the window) and release consumers parked on this uop.
        std::vector<Waiting> &wl = waiting_[ci];
        const auto at = std::lower_bound(
            wl.begin(), wl.end(), cd.pos,
            [](const Waiting &w, std::uint64_t pos) {
                return w.pos < pos;
            });
        wake(ci, static_cast<std::size_t>(wl.erase(at) - wl.begin()),
             cd.pos, done);
    }

    if (issued == 0)
        ++stats_.zeroIssueCycles;
    if (issued >= params_.intUnits)
        ++stats_.maxIssueCycles;

    if (prof) {
        prof->issueUsed(issued);
        const int lost = params_.intUnits + params_.fpUnits - issued;
        if (lost > 0) {
            const IssueLoss cause = sawFuBlocked ? IssueLoss::FuBusy
                                    : sawMemWait ? IssueLoss::MemStall
                                    : sawDepWait ? IssueLoss::DepWait
                                                 : IssueLoss::FrontEnd;
            prof->issueLost(cause, lost);
        }
    }
}

void
Pipeline::releaseUop(const Uop &u)
{
    if (u.destType == 1)
        --intRegsUsed_;
    else if (u.destType == 2)
        --fpRegsUsed_;
}

void
Pipeline::leaveIssueQueue(Context &c, const Uop &u)
{
    --c.unissued;
    --(u.fpQueue ? unissuedFp_ : unissuedInt_);
}

void
Pipeline::squashTail(Context &c, std::uint64_t from_seq)
{
    auto &dq = q_[static_cast<size_t>(c.id)];
    auto &ws = writerSeq_[static_cast<size_t>(c.id)];
    while (!dq.empty() && dq.back().seq >= from_seq) {
        const Uop &u = dq.back();
        releaseUop(u);
        ++stats_.squashed;
        if (u.stage == Uop::Stage::Fetched) {
            leaveIssueQueue(c, u);
            // The youngest waiting uop, if any, is this one.
            if (!u.serializing)
                waiting_[static_cast<size_t>(c.id)].pop_back();
        }
        if (u.instr->dest != regNone) {
            if (ws[u.instr->dest] == u.seq)
                ws[u.instr->dest] = 0; // re-bound as refetch proceeds
        }
        dq.pop_back();
    }
    if (waitBranch_[static_cast<size_t>(c.id)] >= from_seq)
        waitBranch_[static_cast<size_t>(c.id)] = 0;
}

void
Pipeline::executeStage()
{
    // Resolve every completion due by now in the order a walk of the
    // windows would meet them: by context, then program order.
    std::vector<Completion> &due = dueNow_;
    due.clear();
    while (!completions_.empty() && completions_.front().doneAt <= now_) {
        due.push_back(completions_.front());
        popCompletion();
    }
    std::sort(due.begin(), due.end(),
              [](const Completion &a, const Completion &b) {
                  return a.ctx != b.ctx ? a.ctx < b.ctx : a.seq < b.seq;
              });
    CtxId stopped = invalidCtx;
    for (const Completion &d : due) {
        // A squash ends its context's turn; a squashed uop's entry is
        // stale.
        if (d.ctx == stopped || !live(d))
            continue;
        const std::size_t ci = static_cast<size_t>(d.ctx);
        Context &c = ctxs_[ci];
        Uop &u = q_[ci].atPos(d.pos);
        u.stage = Uop::Stage::Done;

        if (u.trapDtlb && !u.wrongPath) {
            // Precise DTLB trap: rewind to re-execute this op,
            // then enter the PAL refill path.
            ThreadState &t = *c.thread;
            smtos_assert(u.hasCheckpoint);
            const Addr fault_vaddr = u.vaddr;
            const UopCheckpoint &k = checkpointAt(ci, d.pos);
            t.cursor = k.cursor;
            c.ras.restore(k.ras);
            mcf_.setGhr(k.ghr);
            squashTail(c, u.seq);
            stallFetch(c, now_ + params_.redirectPenalty(),
                       SlotCause::TlbRefill);
            if (probes_)
                probes_->squash(c.gid, u.thread, u.pc, "dtlb-trap");
            dtlbTrap(c, t, fault_vaddr);
            stopped = d.ctx;
            continue;
        }

        if (u.instr->isBranch() && !u.wrongPath) {
            const int cls = u.mode == Mode::User ? 0 : 1;
            if (u.mispredicted) {
                ++stats_.condMispred[cls];
                smtos_trace(TraceCat::Squash,
                            "ctx%d mispredict pc=0x%llx seq=%llu", c.id,
                            (unsigned long long)u.pc,
                            (unsigned long long)u.seq);
                if (probes_)
                    probes_->squash(c.gid, u.thread, u.pc,
                                    "mispredict");
                ThreadState &t = *c.thread;
                const UopCheckpoint &k = checkpointAt(ci, d.pos);
                t.cursor = k.cursor;
                c.ras.restore(k.ras);
                mcf_.setGhr(k.ghr);
                squashTail(c, u.seq + 1);
                stallFetch(c, now_ + params_.redirectPenalty(),
                           SlotCause::SquashRecovery);
                stopped = d.ctx;
                continue;
            }
            if (u.redirectOnly) {
                ++stats_.targetMispred[cls];
                waitBranch_[ci] = 0;
                if (c.fetchResumeAt < now_ + 1)
                    stallFetch(c, now_ + 1, SlotCause::BranchHold);
            }
        }
    }
}

void
Pipeline::commitStage()
{
    int budget = params_.retireWidth;
    // Rotate the starting context for fairness.
    const int nc = static_cast<int>(ctxs_.size());
    const int start = static_cast<int>(now_ % static_cast<Cycle>(nc));
    for (int k = 0; k < nc && budget > 0; ++k) {
        Context &c = ctxs_[static_cast<size_t>((start + k) % nc)];
        auto &dq = q_[static_cast<size_t>(c.id)];
        while (budget > 0 && !dq.empty()) {
            Uop &u = dq.front();
            if (u.stage == Uop::Stage::Done) {
                commitUop(c, u);
                --budget;
                dq.pop_front();
                continue;
            }
            if (u.serializing && u.stage == Uop::Stage::Fetched &&
                u.eligibleAt <= now_) {
                smtos_assert(!u.wrongPath);
                ThreadState &t = *c.thread;
                // Retire accounting first; the OS hook may rebind the
                // context's thread.
                commitUop(c, u);
                leaveIssueQueue(c, u);
                --budget;
                const Instr in = *u.instr;
                dq.pop_front();
                os_->serializing(c, t, in);
                syncAfterOs(c, t);
                continue;
            }
            break;
        }
    }
    for (Context &c : ctxs_)
        if (interruptDue(c))
            deliverInterrupt(c);
}

void
Pipeline::commitUop(Context &c, Uop &u)
{
    releaseUop(u);
    const Instr &in = *u.instr;
    countRetired(*c.thread, in, u.mode, u.tag, u.isCondBranch,
                 u.actualTaken);
    if (in.isStore() && u.drainAt > 0)
        hier_->storeBuffer().push(now_, u.drainAt);
    if (obs_ || probes_)
        reportRetired(c, {.thread = u.thread,
                          .seq = u.seq,
                          .pc = u.pc,
                          .instr = u.instr,
                          .mode = u.mode,
                          .tag = u.tag,
                          .vaddr = u.vaddr,
                          .paddr = u.paddr,
                          .isCondBranch = u.isCondBranch,
                          .taken = u.actualTaken});
}

void
Pipeline::itlbTrap(const Context &c, ThreadState &t, Addr pc)
{
    stats_.kernelEntries.add("itlb_miss");
    os_->itlbMiss(t, pc);
    syncAfterOs(c, t);
}

void
Pipeline::dtlbTrap(const Context &c, ThreadState &t, Addr vaddr)
{
    stats_.kernelEntries.add("dtlb_miss");
    smtos_trace(TraceCat::Tlb, "ctx%d dtlb miss vaddr=0x%llx", c.id,
                (unsigned long long)vaddr);
    os_->dtlbMiss(t, vaddr);
    syncAfterOs(c, t);
}

void
Pipeline::syncAfterOs(const Context &c, ThreadState &t)
{
    if (!obs_)
        return;
    obs_->onThreadStateSync(t, *seqPtr_);
    if (c.thread && c.thread != &t)
        obs_->onThreadStateSync(*c.thread, *seqPtr_);
}

void
Pipeline::deliverInterrupt(Context &c)
{
    c.interruptPending = false;
    stats_.kernelEntries.add("interrupt");
    ThreadState &t = *c.thread;
    os_->interrupt(c, t, c.interruptVector);
    syncAfterOs(c, t);
}

void
Pipeline::reportRetired(const Context &c, RetireEvent e)
{
    if (obs_) {
        e.cycle = now_;
        e.ctx = c.id;
        e.destValue = archWriteValue(c.thread->archRegs, *e.instr, e.pc);
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
        probes_->retire(c.gid, e.thread, e.mode);
}

void
Pipeline::cycle()
{
    if (fidelity_ == Fidelity::Functional) {
        funcCycle();
        return;
    }
    ++now_;
    ++stats_.cycles;
    if (probes_)
        probes_->onCycle(now_);
    if (os_)
        os_->cycleHook(now_);
    commitStage();
    executeStage();
    issueStage();
    fetchStage();
}

bool
Pipeline::quiescent() const
{
    for (const Context &c : ctxs_) {
        // Any unissued uop can issue (or, serializing, commit) soon.
        if (c.unissued != 0)
            return false;
        // A drained context with a pending interrupt takes it at the
        // next commit stage.
        if (interruptDue(c))
            return false;
        if (canFetch(c))
            return false;
        const auto &rq = q_[static_cast<size_t>(c.id)];
        // A completed uop at the head commits next cycle. (Completed
        // uops behind a still-executing head wait, contributing no
        // events, so they don't block the skip.)
        if (!rq.empty() && rq.front().stage == Uop::Stage::Done)
            return false;
    }
    return true;
}

Cycle
Pipeline::nextEventHorizon()
{
    Cycle h = ~Cycle{0};
    for (const Context &c : ctxs_) {
        // Fetch wakeups. Clamping on every pending fetchResumeAt
        // (even for contexts also blocked for other reasons) keeps
        // fetchBlockCause() constant across the skipped window, so
        // the batched profiler attribution is exact.
        if (c.fetchResumeAt > now_ && c.fetchResumeAt < h)
            h = c.fetchResumeAt;
    }
    // A stale top (squashed after issue) would pull the horizon in.
    while (!completions_.empty() && !live(completions_.front()))
        popCompletion();
    if (!completions_.empty() && completions_.front().doneAt < h)
        h = completions_.front().doneAt;
    if (os_) {
        const Cycle osAt = os_->nextEventAt();
        if (osAt < h)
            h = osAt;
    }
    return h;
}

void
Pipeline::skipIdleCycles(Cycle k)
{
    // Batch-account k idle cycles exactly as k cycle() calls would:
    // each would tick the clock and probes, find nothing to commit,
    // execute, issue, or fetch, and charge a full width of lost
    // fetch/issue slots to the same (cause, context, tag).
    ffCycles_ += k;
    now_ += k;
    stats_.cycles += k;
    stats_.zeroFetchCycles += k;
    stats_.zeroIssueCycles += k;
    stats_.fetchableContexts.sampleN(0.0, k);
    if (probes_)
        probes_->onIdleCycles(now_, k);
    CycleProfiler *prof = probes_ ? probes_->profiler() : nullptr;
    if (!prof)
        return;
    // The ticked loop's zero-fetch charge. Every input (stall
    // reasons, in-flight load completion times, cursor positions) is
    // constant until the horizon, so the per-cycle charge is the same
    // for all k cycles.
    chargeFetchLost(*prof, k * static_cast<Cycle>(params_.fetchWidth));
    prof->issueLost(IssueLoss::FrontEnd,
                    k * static_cast<Cycle>(params_.intUnits +
                                           params_.fpUnits));
}

void
Pipeline::skipToHorizon(std::span<Pipeline *const> chip, Cycle limit)
{
    // Quiescence is a detailed-timing notion: functional cycles always
    // make progress (or hit the no-progress panic).
    for (const Pipeline *p : chip)
        if (!p->fastForward_ || p->fidelity_ != Fidelity::Detailed ||
            !p->quiescent())
            return;
    Cycle h = limit;
    for (Pipeline *p : chip)
        h = std::min(h, p->nextEventHorizon());
    // Skip so the next cycle() lands exactly on the horizon. A
    // horizon at now+1 (or earlier) means the next tick may do real
    // work — nothing to skip. The cores tick in lockstep, so core 0's
    // clock is the chip's.
    const Cycle now = chip.front()->now_;
    if (h <= now + 1)
        return;
    for (Pipeline *p : chip)
        p->skipIdleCycles(h - now - 1);
}

void
Pipeline::stepInstrs(std::span<Pipeline *const> chip, std::uint64_t n)
{
    auto retired = [chip]() {
        std::uint64_t total = 0;
        for (const Pipeline *p : chip)
            total += p->stats_.totalRetired();
        return total;
    };
    const Pipeline &clock = *chip.front();
    const std::uint64_t target = retired() + n;
    std::uint64_t last = retired();
    Cycle last_progress = clock.now_;
    while (last < target) {
        skipToHorizon(chip, last_progress + 200001);
        for (Pipeline *p : chip)
            p->cycle();
        const std::uint64_t now_retired = retired();
        if (now_retired != last) {
            last = now_retired;
            last_progress = clock.now_;
        } else if (clock.now_ - last_progress > 200000) {
            smtos_panic("pipeline made no progress for 200k cycles "
                        "(cycle %llu)",
                        static_cast<unsigned long long>(clock.now_));
        }
    }
}

void
Pipeline::stepCycles(std::span<Pipeline *const> chip, Cycle n)
{
    const Pipeline &clock = *chip.front();
    const Cycle end = clock.now_ + n;
    while (clock.now_ < end) {
        skipToHorizon(chip, end);
        for (Pipeline *p : chip)
            p->cycle();
    }
}

void
Pipeline::runInstrs(std::uint64_t n)
{
    Pipeline *self = this;
    stepInstrs({&self, 1}, n);
}

void
Pipeline::runCycles(Cycle n)
{
    Pipeline *self = this;
    stepCycles({&self, 1}, n);
}

std::string
Pipeline::auditInvariants() const
{
    std::ostringstream os;
    std::uint64_t inflight_total = 0;
    // What the windows say the occupancy counters must read, by class
    // (int, fp): unissued uops and renamed destinations.
    int unissued[2] = {0, 0};
    int regs[2] = {0, 0};
    // Completion entries by (ctx, pos, seq, doneAt), for lookups.
    std::vector<std::tuple<CtxId, std::uint64_t, std::uint64_t, Cycle>>
        done;
    for (const Completion &d : completions_)
        done.emplace_back(d.ctx, d.pos, d.seq, d.doneAt);
    std::sort(done.begin(), done.end());
    for (const Context &c : ctxs_) {
        const std::size_t ci = static_cast<size_t>(c.id);
        const auto &q = q_[ci];
        int fetched = 0;
        std::uint64_t hold = 0;
        // The scheduler state derived from this window: the waiting
        // list (with cached cycles that never postpone a ready uop)
        // and one completion entry per issued uop.
        const std::vector<Waiting> &wl = waiting_[ci];
        bool list_ok = true;
        std::size_t k = 0;
        Cycle window_due = never;
        for (std::uint64_t p = q.headPos(); p < q.tailPos(); ++p) {
            const Uop &u = q.atPos(p);
            if (u.destType != 0)
                ++regs[u.destType - 1];
            if (u.redirectOnly && u.stage != Uop::Stage::Done)
                hold = u.seq;
            if (u.stage == Uop::Stage::Fetched) {
                ++fetched;
                ++unissued[u.fpQueue];
            }
            if (u.stage == Uop::Stage::Fetched && !u.serializing) {
                if (k >= wl.size() || wl[k].pos != p) {
                    list_ok = false;
                    continue;
                }
                std::uint64_t parked_on = 0;
                const Cycle ready = readyAt(q, u, parked_on);
                if (wl[k].notBefore > now_ &&
                    (ready < wl[k].notBefore ||
                     (wl[k].notBefore == never &&
                      wl[k].parkedOn != parked_on)))
                    os << "ctx" << c.id << ": waiting uop seq " << u.seq
                       << " held until " << wl[k].notBefore
                       << " but ready at " << ready << "\n";
                if (k < issueWindow)
                    window_due = std::min(window_due, wl[k].notBefore);
                ++k;
            } else if (u.stage == Uop::Stage::Issued) {
                if (u.doneAt < now_)
                    os << "ctx" << c.id << ": issued uop seq " << u.seq
                       << " overdue: done at " << u.doneAt << "\n";
                if (!std::binary_search(
                        done.begin(), done.end(),
                        std::tuple{c.id, p, u.seq, u.doneAt}))
                    os << "ctx" << c.id << ": issued uop seq " << u.seq
                       << " has no completion entry at " << u.doneAt
                       << "\n";
            }
        }
        if (!list_ok || k != wl.size())
            os << "ctx" << c.id << ": waiting list of " << wl.size()
               << " does not match the window's unissued uops\n";
        if (waitDue_[ci] > now_ && window_due < waitDue_[ci])
            os << "ctx" << c.id << ": issue skips the context until "
               << waitDue_[ci] << " but an entry is due at "
               << window_due << "\n";
        if (c.unissued != fetched)
            os << "ctx" << c.id << ": unissued counter " << c.unissued
               << " != unissued uops in window " << fetched << "\n";
        if (waitBranch_[ci] != hold)
            os << "ctx" << c.id << ": fetch held for branch seq "
               << waitBranch_[ci] << " but the window's unresolved "
               << "target mispredict is seq " << hold << "\n";
        inflight_total += q.size();
    }
    const std::uint64_t accounted =
        stats_.squashed + stats_.totalRetired() + inflight_total;
    if (stats_.fetched != accounted)
        os << "instruction conservation violated: fetched "
           << stats_.fetched << " != squashed " << stats_.squashed
           << " + retired " << stats_.totalRetired()
           << " + in flight " << inflight_total << "\n";
    if (unissuedInt_ != unissued[0] || unissuedFp_ != unissued[1])
        os << "issue-queue occupancy " << unissuedInt_ << "+"
           << unissuedFp_ << " != unissued uops in the windows "
           << unissued[0] << "+" << unissued[1] << "\n";
    if (intRegsUsed_ != regs[0] || fpRegsUsed_ != regs[1])
        os << "rename registers in use " << intRegsUsed_ << "+"
           << fpRegsUsed_ << " != renamed destinations in the windows "
           << regs[0] << "+" << regs[1] << "\n";
    if (unissuedInt_ < 0 || unissuedInt_ > params_.intQueue)
        os << "int issue queue occupancy " << unissuedInt_
           << " outside [0, " << params_.intQueue << "]\n";
    if (unissuedFp_ < 0 || unissuedFp_ > params_.fpQueue)
        os << "fp issue queue occupancy " << unissuedFp_
           << " outside [0, " << params_.fpQueue << "]\n";
    if (intRegsUsed_ < 0 || intRegsUsed_ > params_.intRenameRegs)
        os << "int rename registers in use " << intRegsUsed_
           << " outside [0, " << params_.intRenameRegs << "]\n";
    if (fpRegsUsed_ < 0 || fpRegsUsed_ > params_.fpRenameRegs)
        os << "fp rename registers in use " << fpRegsUsed_
           << " outside [0, " << params_.fpRenameRegs << "]\n";
    return os.str();
}

void
Pipeline::dumpState(std::ostream &os) const
{
    os << "cycle " << now_ << ", fetched " << stats_.fetched
       << ", squashed " << stats_.squashed << ", retired "
       << stats_.totalRetired() << ", ipc " << stats_.ipc() << "\n";
    for (const Context &c : ctxs_) {
        os << "ctx" << c.id << ": thread "
           << (c.thread ? c.thread->id : invalidThread)
           << ", inflight " << q_[static_cast<size_t>(c.id)].size()
           << ", unissued " << c.unissued << ", stall "
           << (now_ < c.fetchResumeAt ? slotCauseName(c.stallReason)
                                      : "none")
           << ", intr "
           << (c.interruptPending ? "pending" : "none") << " vec "
           << c.interruptVector << "\n";
        if (!c.thread)
            continue;
        const ThreadState &t = *c.thread;
        os << "  idle " << t.isIdleThread << ", user image "
           << (t.userImage != nullptr) << ", space "
           << (t.space ? t.space->asn() : -1) << "\n";
        os << std::hex;
        for (size_t r = 0; r < t.archRegs.size(); ++r) {
            os << (r % 8 == 0 ? "  " : " ") << "r" << std::dec << r
               << std::hex << "=" << t.archRegs[r];
            if (r % 8 == 7)
                os << "\n";
        }
        os << std::dec;
    }
}

} // namespace smtos
