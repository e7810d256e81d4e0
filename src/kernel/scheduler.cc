/**
 * @file
 * Scheduling: run queue, context binding, ASN management.
 */

#include "common/logging.h"
#include "common/trace.h"
#include "kernel/kernel.h"
#include "obs/probes.h"

namespace smtos {

void
Kernel::lockAcquire(KLock &lk, const char *name, Process *p,
                    Cycle hold)
{
    // One core never contends with itself, and the paper's
    // uniprocessor kernel takes no locks: a one-core chip leaves every
    // lock counter (and the spin-wait code path) untouched.
    if (numCores() == 1)
        return;
    ++lk.stats.acquisitions;
    const Cycle wait =
        lk.freeAt > nowCycle_ ? lk.freeAt - nowCycle_ : 0;
    lk.freeAt =
        (lk.freeAt > nowCycle_ ? lk.freeAt : nowCycle_) + hold;
    lk.stats.holdCycles += hold;
    if (wait == 0)
        return;
    ++lk.stats.contended;
    lk.stats.spinCycles += wait;
    if (p && p->runningOn != invalidCtx) {
        // Same idiom as the shared-TLB-IPR spin (pal.cc): the holder
        // of the context executes spin-wait kernel code for the
        // remaining hold time.
        lockSpinByCore_[static_cast<std::size_t>(
            coreOf(p->runningOn))] += wait;
        p->ts.iprs.intrTrip =
            static_cast<std::uint32_t>(wait / 4 + 1);
        p->ts.cursor.push(kc_.spinWait, true);
    }
    if (probes_)
        probes_->lockEvent(name, wait, nowCycle_);
}

void
Kernel::raiseOn(Context &ctx, std::uint16_t vector)
{
    if (ctx.interruptPending && ctx.interruptVector == VecShootdown &&
        vector != VecShootdown && pendingShootdowns_ > 0) {
        // The overwritten IPI will never deliver as a shootdown; its
        // flush already happened synchronously, so only the ledger
        // needs the correction.
        --pendingShootdowns_;
        ++shootdownsDelivered_;
    }
    pipeOfCtx(ctx).raiseInterrupt(ctx.id, vector);
}

void
Kernel::tlbShootdown(int initiator_core)
{
    for (int gid = 0; gid < totalContexts(); ++gid) {
        if (coreOf(static_cast<CtxId>(gid)) == initiator_core)
            continue;
        Context &c = ctxAt(static_cast<CtxId>(gid));
        // The TLBs were flushed synchronously; the IPI models only
        // handler cost. Contexts already servicing an interrupt keep
        // theirs (the vector must not be overwritten).
        if (!c.hasThread() || c.interruptPending)
            continue;
        raiseOn(c, VecShootdown);
        ++shootdownIpis_;
        ++pendingShootdowns_;
    }
}

bool
Kernel::runnableFor(int core) const
{
    if (!runqFor(core).empty())
        return true;
    for (int k = 1; k < numCores(); ++k) {
        for (const Process *q : runqFor((core + k) % numCores()))
            if (q->state == Process::State::Ready && q->isUser())
                return true;
    }
    return false;
}

void
Kernel::enqueue(Process *p, bool front)
{
    smtos_assert(p->state == Process::State::Ready);
    auto &rq = runqFor(p->homeCore);
    lockAcquire(schedLocks_[static_cast<std::size_t>(p->homeCore)],
                "sched", nullptr, schedLockHold);
    if (front)
        rq.push_front(p);
    else
        rq.push_back(p);
    if (probes_)
        probes_->queueDepth(0, rq.size(), nowCycle_);
}

Process *
Kernel::pickFromQueue(std::deque<Process *> &rq, CtxId preferred)
{
    const bool kthread_first =
        !rq.empty() && rq.front()->state == Process::State::Ready &&
        rq.front()->cfg.kind == ProcKind::KernelThread;
    if (params_.schedPolicy == SchedPolicy::Affinity &&
        preferred != invalidCtx && !kthread_first) {
        // Kernel (netisr) threads keep strict priority; affinity
        // only reorders user processes.
        // Prefer a ready process that last ran here (warm caches);
        // bounded scan so the policy stays O(1)-ish.
        int scanned = 0;
        for (auto it = rq.begin(); it != rq.end() && scanned < 8;
             ++it, ++scanned) {
            Process *p = *it;
            if (p->state == Process::State::Ready &&
                p->lastCtx == preferred) {
                rq.erase(it);
                if (probes_)
                    probes_->queueDepth(0, rq.size(), nowCycle_);
                return p;
            }
        }
    }
    while (!rq.empty()) {
        Process *p = rq.front();
        rq.pop_front();
        if (p->state == Process::State::Ready) {
            if (probes_)
                probes_->queueDepth(0, rq.size(), nowCycle_);
            return p;
        }
    }
    return nullptr;
}

Process *
Kernel::pickNext(CtxId preferred)
{
    const int core = preferred == invalidCtx ? 0 : coreOf(preferred);
    lockAcquire(schedLocks_[static_cast<std::size_t>(core)], "sched",
                nullptr, schedLockHold);
    Process *p = pickFromQueue(runqFor(core), preferred);
    if (p)
        return p;
    // Work stealing: deterministic scan of the other cores' queues
    // for a ready user process (netisrs stay pinned to their home
    // core's protocol queue).
    for (int k = 1; k < numCores(); ++k) {
        const int victim = (core + k) % numCores();
        lockAcquire(schedLocks_[static_cast<std::size_t>(victim)],
                    "sched", nullptr, schedLockHold);
        auto &vq = runqFor(victim);
        for (auto it = vq.begin(); it != vq.end(); ++it) {
            Process *q = *it;
            if (q->state == Process::State::Ready && q->isUser()) {
                vq.erase(it);
                q->homeCore = core;
                ++steals_;
                if (probes_)
                    probes_->queueDepth(0, vq.size(), nowCycle_);
                return q;
            }
        }
    }
    return nullptr;
}

void
Kernel::assignAsn(AddrSpace &space, int initiator_core)
{
    if (nextAsn_ > params_.maxAsn) {
        // ASN wraparound: flush both shared TLBs on every core and
        // restart the numbering; remote cores get shootdown IPIs.
        // Running processes get fresh ASNs immediately.
        ++wraparounds_;
        for (Pipeline *pl : pipes_) {
            pl->itlb().flushAll();
            pl->dtlb().flushAll();
        }
        tlbShootdown(initiator_core);
        nextAsn_ = 1;
        for (auto &pp : procs_) {
            if (pp->isUser())
                pp->space->setAsn(-1);
        }
        kernelSpace_->setAsn(0);
        for (Process *cur : curProc_) {
            if (cur && cur->isUser() && cur->space->asn() < 0)
                cur->space->setAsn(nextAsn_++);
        }
        if (space.asn() >= 0)
            return; // got one as a running process
    }
    space.setAsn(nextAsn_++);
}

void
Kernel::switchTo(Context &ctx, Process *next)
{
    Process *old = curProc_[static_cast<size_t>(ctx.gid)];
    if (!next)
        next = idleForCtx_[static_cast<size_t>(ctx.gid)];
    smtos_assert(next != nullptr);
    if (next == old)
        return;

    if (old && old->state == Process::State::Running) {
        old->state = Process::State::Ready;
        old->lastCtx = ctx.gid;
        old->runningOn = invalidCtx;
        if (old->cfg.kind != ProcKind::IdleThread)
            enqueue(old, old->cfg.kind == ProcKind::KernelThread);
    } else if (old) {
        old->lastCtx = ctx.gid;
        old->runningOn = invalidCtx;
    }

    next->state = Process::State::Running;
    next->runningOn = ctx.gid;
    if (next->isUser() && next->space->asn() < 0)
        assignAsn(*next->space, ctx.core);
    pipeOfCtx(ctx).bindThread(ctx.id, &next->ts);
    curProc_[static_cast<size_t>(ctx.gid)] = next;
    ++switches_;
    smtos_trace(TraceCat::Sched, "ctx%d: pid%d -> pid%d", ctx.gid,
                old ? old->pid : -1, next->pid);
    if (probes_) {
        const bool idle = next->cfg.kind == ProcKind::IdleThread;
        const std::string label =
            next->cfg.kind == ProcKind::KernelThread
                ? "netisr" + std::to_string(next->pid)
                : "pid" + std::to_string(next->pid);
        probes_->threadSwitch(ctx.gid, next->pid, idle, label);
        // A process dispatched while serving a connection closes that
        // request's scheduler-wait stage (the tracer ignores repeat
        // dispatches after preemption).
        if (next->conn >= 0 &&
            conns_[static_cast<size_t>(next->conn)].inUse) {
            const Connection &cn =
                conns_[static_cast<size_t>(next->conn)];
            probes_->reqDispatched(cn.client, cn.reqSeq, ctx.gid,
                                   next->pid, nowCycle_);
        }
    }

    // The incoming thread pays the context-switch cost.
    if (!params_.appOnly)
        next->ts.cursor.push(kc_.schedSwitch, true);
    // bindThread synced the observer before the frame push above; the
    // post-push state is the one the incoming thread retires from.
    pipeOfCtx(ctx).noteOsStateSync(next->ts);
}

void
Kernel::blockCurrent(Context &ctx, Process &p, std::uint16_t chan)
{
    p.state = Process::State::Blocked;
    p.waitChan = chan;
    waiters_[chan].push_back(&p);
    switchTo(ctx, pickNext(ctx.gid));
}

void
Kernel::deliverWait(Process &p, std::uint16_t chan)
{
    if (chan == WaitAccept) {
        // Claiming a connection mutates the shared table.
        lockAcquire(connLock_, "conn", &p, connLockHold);
        smtos_assert(!acceptQ_.empty());
        const int conn = acceptQ_.front();
        acceptQ_.pop_front();
        p.conn = conn;
        p.reqConsumed = false;
        conns_[static_cast<size_t>(conn)].owner = p.pid;
        if (probes_) {
            const Connection &cn = conns_[static_cast<size_t>(conn)];
            probes_->reqClaimed(cn.client, cn.reqSeq, p.pid,
                                nowCycle_);
            probes_->queueDepth(1, acceptQ_.size(), nowCycle_);
            // An already-running process claimed the connection on a
            // non-blocking accept: there is no scheduler wait, so the
            // dispatch boundary coincides with the claim.
            if (p.state == Process::State::Running)
                probes_->reqDispatched(cn.client, cn.reqSeq,
                                       p.runningOn, p.pid, nowCycle_);
        }
    }
}

bool
Kernel::wouldBlock(Process &p, std::uint16_t chan) const
{
    switch (chan) {
      case WaitAccept:
        return acceptQ_.empty();
      case WaitRecv:
        return p.conn < 0 ||
               conns_[static_cast<size_t>(p.conn)].recvAvail == 0;
      case WaitProtoQ:
        // Netisrs drain their own core's protocol queue.
        return protoQFor(p.homeCore).empty();
      default:
        return false;
    }
}

void
Kernel::wakeWaiters(std::uint16_t chan)
{
    auto &ws = waiters_[chan];
    if (chan == WaitRecv) {
        for (auto it = ws.begin(); it != ws.end();) {
            Process *p = *it;
            if (p->conn >= 0 &&
                conns_[static_cast<size_t>(p->conn)].recvAvail > 0) {
                it = ws.erase(it);
                p->state = Process::State::Ready;
                p->waitChan = WaitNone;
                enqueue(p);
                nudgeIdleContext();
            } else {
                ++it;
            }
        }
        return;
    }

    // Front-to-back: wake each waiter whose resource is available.
    // The accept queue is chip-global; protocol queues are per-core,
    // so a netisr only wakes when its own core's queue has packets.
    auto available = [&](const Process *p) {
        return chan == WaitAccept
                   ? !acceptQ_.empty()
                   : !protoQFor(p->homeCore).empty();
    };
    for (auto it = ws.begin(); it != ws.end();) {
        Process *p = *it;
        if (!available(p)) {
            ++it;
            continue;
        }
        it = ws.erase(it);
        deliverWait(*p, chan);
        p->state = Process::State::Ready;
        p->waitChan = WaitNone;
        enqueue(p, p->cfg.kind == ProcKind::KernelThread);
        nudgeIdleContext();
    }
}

void
Kernel::nudgeIdleContext()
{
    for (int c = 0; c < totalContexts(); ++c) {
        Process *cur = curProc_[static_cast<size_t>(c)];
        Context &ctx = ctxAt(static_cast<CtxId>(c));
        if (cur && cur->cfg.kind == ProcKind::IdleThread &&
            !ctx.interruptPending) {
            raiseOn(ctx, VecResched);
            return;
        }
    }
}

} // namespace smtos
