/**
 * @file
 * Probe hub: the single indirection point between the simulated
 * machine and the observability sinks (cycle-attribution profiler,
 * Perfetto timeline exporter).
 *
 * Producers (pipeline, kernel, TLBs, caches) hold one `Probes *`
 * which is null in normal runs, so every probe site costs exactly one
 * predictable branch when observability is off — the same discipline
 * as `smtos_trace`. When attached, the hub timestamps events with the
 * current simulated cycle and fans them out to whichever sinks are
 * bound. Probes never mutate simulation state: metrics with probes on
 * are bit-identical to metrics with probes off.
 */

#ifndef SMTOS_OBS_PROBES_H
#define SMTOS_OBS_PROBES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace smtos {

class CycleProfiler;
class RequestTracer;
class TimelineExporter;

/**
 * Where a lost fetch slot went: the top-down taxonomy of the
 * cycle-attribution profiler. Every fetch slot of every cycle is
 * either used or charged to exactly one of these causes, so the
 * per-category totals sum to cycles x fetch width by construction.
 * The fetch stage speaks it too: its stops and a waiting context's
 * stall reason are slot causes (Pipeline::fetchFrom,
 * Context::stallReason).
 */
enum class SlotCause : std::uint8_t
{
    IcacheMiss = 0, ///< fetch blocked on an L1I fill
    TlbRefill,      ///< fetch stalled while a TLB trap vectors/refills
    IntrDrain,      ///< draining in-flight work for interrupt delivery
    SquashRecovery, ///< front-end refill after squash / wrong-path stall
    Serialize,      ///< serializing instruction waiting to commit
    BranchHold,     ///< fetch held for indirect/return target resolve
    IqFull,         ///< shared issue queues full
    RenameFull,     ///< shared rename registers exhausted
    DcacheStall,    ///< per-context window full behind an in-flight load
    WindowFull,     ///< per-context window full, non-load head
    FetchPortLimit, ///< more fetchable contexts than fetch ports
    Fragmentation,  ///< taken-branch fetch-run break left slots unused
    KernelSync,     ///< context spinning in kernel lock code (TagSpin)
    Idle,           ///< context running the idle loop
    NoThread,       ///< no software thread bound
};

constexpr int numSlotCauses = static_cast<int>(SlotCause::NoThread) + 1;

/** Human-readable slot-cause name. */
const char *slotCauseName(SlotCause c);

/** Why an issue slot went unused this cycle (coarser taxonomy). */
enum class IssueLoss : std::uint8_t
{
    FuBusy = 0, ///< ready instructions blocked on FU/port limits
    MemStall,   ///< operands waiting on a long-latency (memory) producer
    DepWait,    ///< operands waiting on a short-latency producer
    FrontEnd,   ///< nothing issueable in any queue
};

constexpr int numIssueLosses = static_cast<int>(IssueLoss::FrontEnd) + 1;

/** Human-readable issue-loss name. */
const char *issueLossName(IssueLoss c);

/**
 * The hub. Owns no sinks; the ObsSession binds them and wires this
 * object into the machine via System::attachProbes().
 */
class Probes
{
  public:
    /** Bind sinks (any may be null). */
    void
    bind(CycleProfiler *profiler, TimelineExporter *timeline,
         RequestTracer *reqtrace = nullptr)
    {
        profiler_ = profiler;
        timeline_ = timeline;
        reqtrace_ = reqtrace;
    }

    /** Size per-context state; forwards track metadata to the sinks. */
    void begin(int num_contexts);

    CycleProfiler *profiler() const { return profiler_; }
    TimelineExporter *timeline() const { return timeline_; }
    RequestTracer *reqtrace() const { return reqtrace_; }

    /** Current simulated cycle (updated by the pipeline each tick). */
    Cycle now() const { return now_; }

    // --- pipeline-side hooks ---
    void onCycle(Cycle now);
    /** Functional-fidelity cycle: advances the timestamp only. The
     *  profiler does not tick — its used+lost == cycles x width
     *  invariant holds over detailed cycles, and functional cycles
     *  carry no slot accounting to attribute. */
    void onFunctionalCycle(Cycle now);
    /** @p k quiesced cycles elapsed at once (fast-forward), ending at
     *  @p now. Equivalent to k onCycle calls on an idle machine. */
    void onIdleCycles(Cycle now, Cycle k);
    /** Per retired instruction; detects mode/thread span changes. */
    void retire(CtxId ctx, ThreadId thread, Mode mode);
    void squash(CtxId ctx, ThreadId thread, Addr pc, const char *why);

    // --- kernel-side hooks ---
    void syscallEnter(CtxId ctx, ThreadId thread, const char *name);
    /** @p label names the incoming thread ("pid3", "netisr0", "idle"). */
    void threadSwitch(CtxId ctx, ThreadId thread, bool idle,
                      const std::string &label);

    // --- memory-system hooks (timeline detail events) ---
    void tlbMiss(const char *tlb, ThreadId thread, Addr vaddr);
    void cacheMiss(const char *cache, ThreadId thread, Addr paddr);
    /** Banked-DRAM access: @p kind is a DramRowOutcome value. */
    void dramAccess(ThreadId thread, Addr paddr, int channel, int bank,
                    int kind, int queueOcc);

    // --- fault-injection hook (kernel drains the fault log) ---
    void faultEvent(const char *kind, Cycle now, std::uint64_t a,
                    std::uint64_t b);

    // --- kernel lock hook: a contended acquire that spun for `spin`
    // --- cycles (KLock keeps the lock counters) ---
    void lockEvent(const char *name, Cycle spin, Cycle now);

    // --- request-tracing hooks (see obs/reqtrace.h). Producers pass
    // --- their own cycle clock so span stamps match the simulation's
    // --- latency arithmetic bit for bit ---
    void reqIssue(int client, std::uint32_t seq, Cycle now);
    void reqRetransmit(int client, std::uint32_t seq, Cycle now);
    void reqAbort(int client, std::uint32_t seq, Cycle now);
    void reqDriverRx(int client, std::uint32_t seq, Cycle now);
    void reqAccepted(int client, std::uint32_t seq, Cycle now);
    void reqClaimed(int client, std::uint32_t seq, int pid, Cycle now);
    void reqDispatched(int client, std::uint32_t seq, int ctx, int pid,
                       Cycle now);
    void reqTxDone(int client, std::uint32_t seq, int pid, Cycle now);
    void reqComplete(int client, std::uint32_t seq, bool retried,
                     Cycle now);
    /** Fault annotation on a request ("syn-drop", "backlog-drop",
     *  "mce-kill"). */
    void reqDrop(const char *kind, int client, std::uint32_t seq,
                 Cycle now);
    /** Queue-depth counter sample (@p queue: 0 run queue, 1 accept
     *  queue); emitted only while a tracer and a timeline are bound
     *  so untraced timelines stay byte-identical. */
    void queueDepth(int queue, std::size_t depth, Cycle now);

    /** Flush the sinks (close open spans at the final cycle). */
    void finish();

  private:
    CycleProfiler *profiler_ = nullptr;
    TimelineExporter *timeline_ = nullptr;
    RequestTracer *reqtrace_ = nullptr;
    Cycle now_ = 0;
    /** Last retired mode/thread per context (-1: none yet). */
    std::vector<int> lastMode_;
    std::vector<ThreadId> lastThread_;
};

} // namespace smtos

#endif // SMTOS_OBS_PROBES_H
