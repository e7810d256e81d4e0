#include "obs/probes.h"

#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"

namespace smtos {

const char *
slotCauseName(SlotCause c)
{
    switch (c) {
      case SlotCause::IcacheMiss: return "icache-miss";
      case SlotCause::TlbRefill: return "tlb-refill";
      case SlotCause::IntrDrain: return "intr-drain";
      case SlotCause::SquashRecovery: return "squash-recovery";
      case SlotCause::Serialize: return "serialize";
      case SlotCause::BranchHold: return "branch-hold";
      case SlotCause::IqFull: return "iq-full";
      case SlotCause::RenameFull: return "rename-full";
      case SlotCause::DcacheStall: return "dcache-stall";
      case SlotCause::WindowFull: return "window-full";
      case SlotCause::FetchPortLimit: return "fetch-port-limit";
      case SlotCause::Fragmentation: return "fragmentation";
      case SlotCause::KernelSync: return "kernel-sync";
      case SlotCause::Idle: return "idle";
      case SlotCause::NoThread: return "no-thread";
    }
    return "?";
}

const char *
issueLossName(IssueLoss c)
{
    switch (c) {
      case IssueLoss::FuBusy: return "fu-busy";
      case IssueLoss::MemStall: return "mem-stall";
      case IssueLoss::DepWait: return "dep-wait";
      case IssueLoss::FrontEnd: return "front-end";
    }
    return "?";
}

void
Probes::begin(int num_contexts)
{
    lastMode_.assign(static_cast<size_t>(num_contexts), -1);
    lastThread_.assign(static_cast<size_t>(num_contexts),
                       invalidThread);
    if (timeline_)
        timeline_->begin(num_contexts);
}

void
Probes::onCycle(Cycle now)
{
    now_ = now;
    if (profiler_)
        profiler_->tick();
}

void
Probes::onFunctionalCycle(Cycle now)
{
    now_ = now;
}

void
Probes::onIdleCycles(Cycle now, Cycle k)
{
    now_ = now;
    if (profiler_)
        profiler_->tickN(k);
}

void
Probes::retire(CtxId ctx, ThreadId thread, Mode mode)
{
    const size_t i = static_cast<size_t>(ctx);
    if (lastMode_[i] == static_cast<int>(mode) &&
        lastThread_[i] == thread)
        return;
    lastMode_[i] = static_cast<int>(mode);
    lastThread_[i] = thread;
    if (timeline_)
        timeline_->modeSpan(ctx, thread, mode, now_);
    if (profiler_)
        profiler_->modeChange(thread, mode, now_);
}

void
Probes::squash(CtxId ctx, ThreadId thread, Addr pc, const char *why)
{
    if (timeline_)
        timeline_->squash(ctx, thread, pc, why, now_);
}

void
Probes::syscallEnter(CtxId ctx, ThreadId thread, const char *name)
{
    if (timeline_)
        timeline_->syscallBegin(ctx, thread, name, now_);
    if (profiler_)
        profiler_->syscallEnter(thread, now_);
}

void
Probes::threadSwitch(CtxId ctx, ThreadId thread, bool idle,
                     const std::string &label)
{
    if (timeline_)
        timeline_->schedSpan(ctx, thread, idle, label, now_);
}

void
Probes::tlbMiss(const char *tlb, ThreadId thread, Addr vaddr)
{
    if (timeline_ && timeline_->detail())
        timeline_->memInstant(tlb, thread, vaddr, now_);
}

void
Probes::cacheMiss(const char *cache, ThreadId thread, Addr paddr)
{
    if (timeline_ && timeline_->detail())
        timeline_->memInstant(cache, thread, paddr, now_);
}

void
Probes::dramAccess(ThreadId thread, Addr paddr, int channel, int bank,
                   int kind, int queueOcc)
{
    if (timeline_ && timeline_->detail())
        timeline_->dramEvent(thread, paddr, channel, bank, kind,
                             queueOcc, now_);
}

void
Probes::faultEvent(const char *kind, Cycle now, std::uint64_t a,
                   std::uint64_t b)
{
    if (timeline_)
        timeline_->faultInstant(kind, now, a, b);
}

void
Probes::lockEvent(const char *name, Cycle spin, Cycle now)
{
    if (timeline_ && timeline_->detail())
        timeline_->memInstant(name, invalidThread, spin, now);
}

void
Probes::reqIssue(int client, std::uint32_t seq, Cycle now)
{
    if (reqtrace_)
        reqtrace_->issue(client, seq, now);
}

void
Probes::reqRetransmit(int client, std::uint32_t seq, Cycle now)
{
    if (reqtrace_)
        reqtrace_->retransmit(client, seq, now);
}

void
Probes::reqAbort(int client, std::uint32_t seq, Cycle now)
{
    if (reqtrace_)
        reqtrace_->abortReq(client, seq, now);
}

void
Probes::reqDriverRx(int client, std::uint32_t seq, Cycle now)
{
    if (reqtrace_)
        reqtrace_->driverRx(client, seq, now);
}

void
Probes::reqAccepted(int client, std::uint32_t seq, Cycle now)
{
    if (reqtrace_)
        reqtrace_->accepted(client, seq, now);
}

void
Probes::reqClaimed(int client, std::uint32_t seq, int pid, Cycle now)
{
    if (reqtrace_)
        reqtrace_->claimed(client, seq, pid, now);
}

void
Probes::reqDispatched(int client, std::uint32_t seq, int ctx, int pid,
                      Cycle now)
{
    if (reqtrace_)
        reqtrace_->dispatched(client, seq, ctx, pid, now);
}

void
Probes::reqTxDone(int client, std::uint32_t seq, int pid, Cycle now)
{
    if (reqtrace_)
        reqtrace_->txDone(client, seq, pid, now);
}

void
Probes::reqComplete(int client, std::uint32_t seq, bool retried,
                    Cycle now)
{
    if (reqtrace_)
        reqtrace_->complete(client, seq, retried, now);
}

void
Probes::reqDrop(const char *kind, int client, std::uint32_t seq,
                Cycle now)
{
    if (reqtrace_)
        reqtrace_->drop(kind, client, seq, now);
}

void
Probes::queueDepth(int queue, std::size_t depth, Cycle now)
{
    if (reqtrace_ && timeline_)
        timeline_->queueCounter(queue, depth, now);
}

void
Probes::finish()
{
    if (timeline_)
        timeline_->finish(now_);
}

} // namespace smtos
