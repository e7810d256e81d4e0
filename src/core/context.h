/**
 * @file
 * Hardware contexts, software thread state, core parameters, and the
 * pipeline <-> operating-system-model callback interface.
 */

#ifndef SMTOS_CORE_CONTEXT_H
#define SMTOS_CORE_CONTEXT_H

#include <cstdint>
#include <vector>

#include "bp/ras.h"
#include "common/counters.h"
#include "common/stats.h"
#include "common/types.h"
#include "isa/cursor.h"
#include "ref/refvalue.h"
#include "vm/addrspace.h"

namespace smtos {

/**
 * Architected state of one software thread (process or kernel thread)
 * as the pipeline sees it. Scheduling metadata lives in the kernel.
 */
struct ThreadState
{
    ThreadId id = invalidThread;
    AddrSpace *space = nullptr;      ///< owning address space
    const CodeImage *userImage = nullptr; ///< null for kernel threads
    Cursor cursor;
    ThreadIprs iprs;
    MemRegion regions[maxRegions];
    bool isIdleThread = false;
    /** Seed base for this thread's stochastic behavior. */
    std::uint64_t seed = 1;
    /**
     * Committed register values under the refvalue.h value model.
     * Maintained by the pipeline's commit stage only while a
     * RetireObserver is attached (co-simulation).
     */
    ArchRegs archRegs{};
};

/** Why a context's fetch waits for Context::fetchResumeAt. Only the
 *  cycle-attribution profiler reads it, to charge a blocked context's
 *  fetch slots (Pipeline::fetchBlockCause). */
enum class FetchStall : std::uint8_t
{
    None = 0,
    IcacheMiss,
    Redirect,      ///< refilling the front end after a squash
    TrapDrain,     ///< draining before trap/interrupt delivery
    BranchBubble,  ///< waiting on a branch target: a BTB miss at
                   ///< decode, or a resolved target mispredict
};

/** One SMT hardware context. */
struct Context
{
    CtxId id = invalidCtx;
    /** Owning core on the chip (0 on a one-core chip). */
    int core = 0;
    /** Global context id across the chip: core * contextsPerCore + id.
     *  Equals @c id on a one-core chip. The kernel schedules by
     *  gid; the pipeline indexes its own structures by @c id. */
    CtxId gid = invalidCtx;
    ThreadState *thread = nullptr;
    Ras ras{16};

    /** Cycle fetch may resume after a stall. */
    Cycle fetchResumeAt = 0;
    FetchStall stallReason = FetchStall::None;

    /** Interrupt pending delivery (waiting for drain). */
    bool interruptPending = false;
    std::uint16_t interruptVector = 0;

    /** In-flight (fetched, not yet committed/squashed) uops. */
    int inflight = 0;
    /** In-flight and not yet issued (the ICOUNT metric). */
    int unissued = 0;

    bool hasThread() const { return thread != nullptr; }
};

/** Core configuration (Table 1 defaults; superscalar = 1 context). */
/** Fetch-selection policies (the ablation of [41]'s ICOUNT). */
enum class FetchPolicy { Icount, RoundRobin };

struct CoreParams
{
    int numContexts = 8;
    int fetchWidth = 8;
    int fetchContexts = 2;        ///< the 2.8 ICOUNT scheme
    FetchPolicy fetchPolicy = FetchPolicy::Icount;
    int pipelineStages = 9;       ///< 7 for the superscalar
    int intUnits = 6;
    int memUnits = 4;             ///< of the int units, can issue mem
    int fpUnits = 4;
    int intQueue = 32;
    int fpQueue = 32;
    int intRenameRegs = 100;
    int fpRenameRegs = 100;
    int retireWidth = 12;
    int dcachePorts = 2;
    int itlbEntries = 128;
    int dtlbEntries = 128;
    int rasDepth = 16;
    int maxInflightPerCtx = 128;
    Cycle intMulLatency = 8;
    Cycle fpLatency = 4;
    Cycle btbMissPenalty = 2;     ///< decode-redirect bubble

    /** Issue eligibility delay after fetch (front-end depth). */
    Cycle issueDelay() const
    {
        return static_cast<Cycle>(pipelineStages - 5);
    }
    /** Post-squash fetch redirect penalty. */
    Cycle redirectPenalty() const { return issueDelay() + 1; }
};

/** Aggregate pipeline statistics (inputs to the paper's tables). */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t fetched = 0;
    std::uint64_t fetchedWrongPath = 0;
    std::uint64_t squashed = 0;
    std::uint64_t issued = 0;

    /** Retired instructions by privilege mode. */
    std::uint64_t retired[numModes] = {0, 0, 0, 0};
    /** Retired kernel/PAL instructions by service tag (tag < 64). */
    std::uint64_t retiredByTag[64] = {0};

    /** Retired instruction mix [user=0/kernelish=1][MixClass]. */
    std::uint64_t mix[2][numMixClasses] = {{0}, {0}};
    /** Memory ops bypassing the TLB, by class [user/kernel][ld/st]. */
    std::uint64_t physMem[2][2] = {{0, 0}, {0, 0}};
    /** Conditional branches retired / taken [user/kernel]. */
    std::uint64_t condRetired[2] = {0, 0};
    std::uint64_t condTaken[2] = {0, 0};
    /** Conditional mispredicts at resolve [user/kernel]. */
    std::uint64_t condMispred[2] = {0, 0};
    /** Indirect/return target mispredictions [user/kernel]. */
    std::uint64_t targetMispred[2] = {0, 0};

    std::uint64_t zeroFetchCycles = 0;
    std::uint64_t zeroIssueCycles = 0;
    std::uint64_t maxIssueCycles = 0;
    Sampler fetchableContexts;

    /**
     * Kernel entries by reason, counted by the pipeline: the traps
     * (itlb_miss, dtlb_miss) and interrupt delivery (interrupt).
     */
    CounterMap kernelEntries;

    /** The field list (common/counters.h), in PIPE snapshot order. */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("cycles", Peak{s.cycles}...);
        f("fetched", s.fetched...);
        f("fetched_wrong_path", s.fetchedWrongPath...);
        f("squashed", s.squashed...);
        f("issued", s.issued...);
        f("retired", s.retired...);
        f("retired_by_tag", s.retiredByTag...);
        f("mix", s.mix...);
        f("phys_mem", s.physMem...);
        f("cond_retired", s.condRetired...);
        f("cond_taken", s.condTaken...);
        f("cond_mispred", s.condMispred...);
        f("target_mispred", s.targetMispred...);
        f("zero_fetch_cycles", s.zeroFetchCycles...);
        f("zero_issue_cycles", s.zeroIssueCycles...);
        f("max_issue_cycles", s.maxIssueCycles...);
        f("fetchable_contexts", s.fetchableContexts...);
        f("kernel_entries", s.kernelEntries...);
    }

    std::uint64_t totalRetired() const
    {
        return retired[0] + retired[1] + retired[2] + retired[3];
    }

    double ipc() const
    {
        return cycles ? static_cast<double>(totalRetired()) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Switchable-fidelity counters (DESIGN.md §15). */
struct FidelityStats
{
    std::uint64_t funcInstrs = 0; ///< instructions retired functionally
    std::uint64_t funcCycles = 0; ///< cycles ticked functionally
    std::uint64_t switches = 0;   ///< fidelity switches (both ways)

    bool enabled() const { return funcInstrs != 0 || funcCycles != 0; }

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("functional_instructions", s.funcInstrs...);
        f("functional_cycles", s.funcCycles...);
        f("switches", s.switches...);
    }
};

class Pipeline;

/**
 * Interface the pipeline uses to hand control to the OS model at the
 * points where software takes over: TLB refills, syscalls and other
 * serializing operations, interrupt delivery, and idle decisions.
 */
class OsCallbacks
{
  public:
    virtual ~OsCallbacks() = default;

    /**
     * A correct-path data reference missed the DTLB. The pipeline has
     * already squashed and rewound the thread's cursor to re-execute
     * the faulting op; the OS must push the PAL handler (and set the
     * thread's IPRs) so the refill code executes next.
     */
    virtual void dtlbMiss(ThreadState &t, Addr vaddr) = 0;

    /** Instruction fetch missed the ITLB (no squash needed). */
    virtual void itlbMiss(ThreadState &t, Addr pc) = 0;

    /**
     * A serializing instruction (Syscall, Magic, TlbWrite, Halt)
     * reached the head of its context and committed. The OS performs
     * its effect and advances/redirects the thread's cursor. May
     * rebind the context's thread (context switch).
     */
    virtual void serializing(Context &ctx, ThreadState &t,
                             const Instr &in) = 0;

    /** An interrupt was delivered to a drained context. */
    virtual void interrupt(Context &ctx, ThreadState &t,
                           std::uint16_t vector) = 0;

    /** Called once per cycle before the pipeline stages. */
    virtual void cycleHook(Cycle now) = 0;

    /**
     * Earliest future cycle at which cycleHook must observe the clock
     * (device interrupt, timer, scheduled fault, audit, ...), or
     * ~Cycle{0} when nothing is scheduled. Quiescence fast-forward
     * never skips past this. The default of 0 means "call me every
     * cycle", which disables fast-forward for OS models that don't
     * implement event scheduling.
     */
    virtual Cycle nextEventAt() const { return 0; }

    /**
     * Application-only mode: return the physical address for @p vaddr
     * as if the TLB refill completed instantly (mapping on demand).
     */
    virtual Addr magicTranslate(ThreadState &t, Addr vaddr,
                                bool itlb) = 0;
};

} // namespace smtos

#endif // SMTOS_CORE_CONTEXT_H
