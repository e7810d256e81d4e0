/**
 * @file
 * The MiniOS kernel model.
 *
 * Plays the role Digital Unix 4.0d plays in the paper: it owns
 * processes, address spaces and ASNs, the run queue, sockets and the
 * protocol queue, the buffer-cache file system (zero-latency disk, as
 * the paper configures), and the NIC/timer devices. All of its *code*
 * executes on the simulated pipeline via the kernel image; this class
 * supplies the semantics at the magic/serializing points and decides
 * which handler the hardware vectors to on TLB misses and interrupts.
 */

#ifndef SMTOS_KERNEL_KERNEL_H
#define SMTOS_KERNEL_KERNEL_H

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "core/pipeline.h"
#include "fault/fault.h"
#include "kernel/admission.h"
#include "kernel/image.h"
#include "kernel/layout.h"
#include "net/clients.h"
#include "net/network.h"
#include "vm/physmem.h"

namespace smtos {

class InvariantAuditor;
class SnapImages;

/** What kind of software thread a Process is. */
enum class ProcKind
{
    SpecIntApp,
    ApacheServer,
    KernelThread,
    IdleThread,
};

/** Per-process configuration installed by the workload builders. */
struct ProcParams
{
    ProcKind kind = ProcKind::SpecIntApp;
    const CodeImage *image = nullptr; ///< user image (kernel: null)
    int entryFunc = 0;
    std::uint64_t seed = 1;
    Addr heapBytes = 6ull << 20;
    std::uint32_t inputChunks = 256;  ///< SPECInt start-up read loop
    int inputFileId = -1;             ///< SPECInt input file
    /** Share text frames with other processes of the same image. */
    bool shareText = false;
};

/** A software thread (process, kernel thread, or idle thread). */
struct Process
{
    int pid = -1;
    ProcParams cfg;
    ThreadState ts;
    std::unique_ptr<AddrSpace> space;

    enum class State { Ready, Running, Blocked, Exited };
    State state = State::Ready;
    /** Core whose run queue holds this process when Ready. Work
     *  stealing migrates user processes; netisrs stay pinned. */
    int homeCore = 0;
    /** Last context this process ran on (scheduler affinity). */
    CtxId lastCtx = invalidCtx;
    std::uint16_t waitChan = WaitNone;
    CtxId runningOn = invalidCtx;

    std::uint16_t pendingSyscall = 0;

    /** Consecutive machine checks without forward progress; the
     *  kernel kills the process past the plan's retry limit. */
    std::uint32_t mceHits = 0;

    // Apache per-request state.
    int conn = -1;
    bool reqConsumed = false;
    std::uint32_t fileBytesLeft = 0;
    std::uint32_t filePage = 0;
    std::uint32_t lastChunk = 0;
    std::uint64_t requestsServed = 0;

    // Pending TX packet (prepared at writev, sent at NetSend).
    Packet txPacket;

    bool isUser() const
    {
        return cfg.kind == ProcKind::SpecIntApp ||
               cfg.kind == ProcKind::ApacheServer;
    }
};

/** Kernel lock counters for one named lock (DESIGN.md §16). */
struct LockStats
{
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;  ///< acquisitions that spun
    std::uint64_t spinCycles = 0; ///< cycles burned waiting
    std::uint64_t holdCycles = 0; ///< cycles the lock was held

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("acquisitions", s.acquisitions...);
        f("contended", s.contended...);
        f("spin_cycles", s.spinCycles...);
        f("hold_cycles", s.holdCycles...);
    }
};

/**
 * A measured kernel lock. Locks are modeled in virtual time, like the
 * shared-TLB-IPR spin in pal.cc: each acquisition advances freeAt by
 * the hold time; an acquisition arriving while the lock is held spins
 * for the remainder, charged to the acquiring process as kernel
 * spin-wait code. Only instrumented on a multicore chip: one core
 * never contends with itself, and the paper's uniprocessor kernel
 * takes no locks (Kernel::lockAcquire).
 */
struct KLock
{
    Cycle freeAt = 0;
    LockStats stats;
};

/** Measured lock hold times (virtual cycles), calibrated to the
 *  relative critical-section lengths of the guarded structures. */
constexpr Cycle connLockHold = 60;
constexpr Cycle mbufLockHold = 40;
constexpr Cycle schedLockHold = 20;

/** A server-side connection/socket. */
struct Connection
{
    bool inUse = false;
    int client = -1;
    int fileId = -1;
    std::uint32_t reqBytes = 0;
    std::uint32_t recvAvail = 0;
    Addr mbuf = 0;
    int owner = -1; ///< pid after accept
    std::uint32_t reqSeq = 0; ///< echoed into response packets
    /** Cycle the netisr queued this connection for accept; read by
     *  the oldest-first shedding policy. */
    Cycle acceptedAt = 0;
};

/** The OS model. */
class Kernel : public OsCallbacks
{
  public:
    /**
     * Run-queue policies: plain FIFO (Digital Unix-like round robin)
     * or cache-affinity preference — the SMT-aware scheduling
     * direction the paper cites as future work [30, 36].
     */
    enum class SchedPolicy { Fifo, Affinity };

    struct Params
    {
        int numNetisr = 2;
        SchedPolicy schedPolicy = SchedPolicy::Fifo;
        bool enableNetwork = false;
        Cycle nicInterval = 8000;   ///< NIC interrupt coalescing
        Cycle timerQuantum = 150000; ///< scheduling quantum per context
        int maxAsn = 127;
        std::uint64_t seed = 1234;
        /**
         * Table 4 application-only mode: system calls and TLB misses
         * complete instantly with no effect on hardware state.
         */
        bool appOnly = false;
        /**
         * Ablation of the paper's OS modification #2: when true, the
         * TLB-miss IPRs are shared (unmodified SMP OS), so concurrent
         * TLB-miss handlers serialize behind a spin lock. When false
         * (default, the paper's modified OS), per-context IPRs let
         * handlers run in parallel.
         */
        bool sharedTlbIpr = false;
        SpecWebParams web;
        /** Open-loop client arrivals (default off: closed loop). */
        OpenLoopParams openLoop;
        /** Accept-queue admission control + mbuf accounting. */
        AdmitParams admit;
    };

    /**
     * Boot on the chip whose cores are @p pipes (in core order; every
     * core has the same context count) above @p uncore, and become
     * every core's OS callback. Contexts are addressed by their global
     * id (gid = core * contextsPerCore + local id) everywhere in the
     * kernel.
     */
    Kernel(const Params &params, const std::vector<Pipeline *> &pipes,
           Uncore &uncore, PhysMem &mem, const KernelCode &kc);

    /** Attach (or detach, with nullptr) the observability hub; the
     *  client population shares it for request-trace stamping. */
    void
    setProbes(Probes *p)
    {
        probes_ = p;
        if (clients_)
            clients_->setProbes(p);
    }

    /**
     * Attach a fault plan. Must be called before start(): it threads
     * the plan into the network link, sizes the connection table when
     * the plan overrides it, and arms the client recovery layer when
     * the plan can perturb delivery.
     */
    void attachFaults(FaultPlan *plan);

    /** Attach (or detach) the periodic structural invariant auditor. */
    void setAuditor(InvariantAuditor *a) { auditor_ = a; }

    FaultPlan *faults() { return faults_; }

    /** Injection counters merged with kernel backpressure and client
     *  recovery counters — what MetricsSnapshot captures. */
    FaultCounters faultCounters() const;

    /**
     * Install (or replace) the admission-control policy and mbuf
     * accounting mode. Also used by snapshot resume to apply a
     * policy-only override mid-flight: the RX-unit map is rebuilt
     * from the live connections and protocol queue, so switching
     * accounting on over in-flight state is safe.
     */
    void setAdmission(const AdmitParams &p);

    /** Reconfigure the client population's open-loop generator. */
    void setOpenLoop(const OpenLoopParams &p);

    /** Merged client+kernel overload accounting (the gated
     *  "overload" JSON object); enabled=false in closed-loop runs. */
    OverloadStats overloadStats() const;

    /**
     * Check kernel structural invariants (connection-table/accept-
     * queue consistency, run-queue sanity). Returns an empty string
     * when everything holds, else a description of the violation.
     */
    std::string auditInvariants() const;

    /** Dump scheduler/process/net-stack state for the crash bundle. */
    void dumpState(std::ostream &os) const;

    /** Create a user process (workload API). */
    Process &createProcess(const ProcParams &cfg);

    /** Create idle/netisr threads and bind initial threads. */
    void start();

    // --- OsCallbacks ---
    void dtlbMiss(ThreadState &t, Addr vaddr) override;
    void itlbMiss(ThreadState &t, Addr pc) override;
    void serializing(Context &ctx, ThreadState &t,
                     const Instr &in) override;
    void interrupt(Context &ctx, ThreadState &t,
                   std::uint16_t vector) override;
    void cycleHook(Cycle now) override;
    Cycle nextEventAt() const override;

    // --- introspection for metrics/benches ---
    const CounterMap &mmEntries() const { return mmEntries_; }
    const CounterMap &syscallEntries() const { return syscalls_; }
    Network &network() { return net_; }
    ClientPopulation &clients() { return *clients_; }
    std::uint64_t requestsServed() const { return requestsServed_; }
    std::uint64_t diskReads() const { return diskReads_; }
    std::uint64_t contextSwitches() const { return switches_; }
    std::uint64_t tlbWraparounds() const { return wraparounds_; }

    // --- SMP introspection (all zero on a one-core chip) ---
    int numCores() const { return static_cast<int>(pipes_.size()); }
    const KLock &connLock() const { return connLock_; }
    const KLock &mbufLock() const { return mbufLock_; }
    const std::vector<KLock> &schedLocks() const { return schedLocks_; }
    std::uint64_t workSteals() const { return steals_; }
    std::uint64_t shootdownIpis() const { return shootdownIpis_; }
    std::uint64_t shootdownsDelivered() const
    {
        return shootdownsDelivered_;
    }
    /** Spin cycles charged to processes running on @p core. */
    std::uint64_t lockSpinCycles(int core) const
    {
        return core < static_cast<int>(lockSpinByCore_.size())
                   ? lockSpinByCore_[static_cast<std::size_t>(core)]
                   : 0;
    }
    const Params &params() const { return params_; }
    Process &proc(int pid) { return *procs_.at(pid); }
    int numProcs() const { return static_cast<int>(procs_.size()); }

    /** All SPECInt processes finished their start-up read loop. */
    bool startupComplete() const;

    // --- snapshot/restore (src/snap) ---
    static constexpr std::uint32_t snapVersion = 2;
    /**
     * All mutable kernel state. Loading requires a freshly booted
     * kernel (createProcess + start() already called with the
     * identical deterministic configuration); every field the boot
     * path initialized is overwritten, including per-process thread
     * state and address spaces.
     */
    template <typename Ar> void snap(Ar &ar, const SnapImages &images);

  private:
    // boot
    void bootKernelSpace();
    void setupRegions(Process &p);
    Process &createInternal(const ProcParams &cfg, bool idle);

    // scheduling (scheduler.cc)
    void enqueue(Process *p, bool front = false);
    Process *pickNext(CtxId preferred = invalidCtx);
    Process *pickFromQueue(std::deque<Process *> &rq,
                           CtxId preferred);
    void switchTo(Context &ctx, Process *next);
    void assignAsn(AddrSpace &space, int initiator_core = 0);
    void wakeWaiters(std::uint16_t chan);
    void blockCurrent(Context &ctx, Process &p, std::uint16_t chan);
    void nudgeIdleContext();

    // SMP plumbing (gid addressing, IPIs, measured locks)
    int ctxPerCore() const { return pipes_.front()->numContexts(); }
    int totalContexts() const { return numCores() * ctxPerCore(); }
    int coreOf(CtxId gid) const
    {
        return static_cast<int>(gid) / ctxPerCore();
    }
    Context &ctxAt(CtxId gid)
    {
        return pipes_[static_cast<std::size_t>(coreOf(gid))]->ctx(
            static_cast<int>(gid) % ctxPerCore());
    }
    Pipeline &pipeOfCtx(const Context &ctx)
    {
        return *pipes_[static_cast<std::size_t>(ctx.core)];
    }
    std::deque<Process *> &runqFor(int core)
    {
        return runqs_[static_cast<std::size_t>(core)];
    }
    const std::deque<Process *> &runqFor(int core) const
    {
        return runqs_[static_cast<std::size_t>(core)];
    }
    std::deque<Packet> &protoQFor(int core)
    {
        return protoQs_[static_cast<std::size_t>(core)];
    }
    const std::deque<Packet> &protoQFor(int core) const
    {
        return protoQs_[static_cast<std::size_t>(core)];
    }
    /** Ready work reachable from @p core (own queue or stealable). */
    bool runnableFor(int core) const;
    /** Raise an interrupt, keeping the shootdown ledger exact when a
     *  pending (undelivered) shootdown IPI is overwritten. */
    void raiseOn(Context &ctx, std::uint16_t vector);
    /** IPI every other core's bindable contexts after a chip-visible
     *  TLB invalidation (unmap / ASN wraparound). */
    void tlbShootdown(int initiator_core);
    /** Acquire a measured lock; spins the acquiring process for the
     *  remaining hold time when contended (see KLock). */
    void lockAcquire(KLock &lk, const char *name, Process *p,
                     Cycle hold);

    // faults (pal.cc)
    void handleTlbFault(Process &p, Addr vaddr, bool itlb);
    AddrSpace &spaceFor(Process &p, Addr vaddr, bool &global);
    Addr magicTranslate(ThreadState &t, Addr vaddr, bool itlb);

    // syscall dispatch and magic ops (syscalls.cc)
    void dispatchSyscall(Context &ctx, Process &p);
    void doMagic(Context &ctx, Process &p, const Instr &in);
    void appOnlySyscall(Process &p);
    bool wouldBlock(Process &p, std::uint16_t chan) const;
    void deliverWait(Process &p, std::uint16_t chan);

    // fs (fs.cc)
    Addr bufcachePagePhys(int file_id, std::uint32_t page);

    // net stack (netstack.cc)
    Addr allocMbuf(std::uint32_t bytes);
    Addr allocRxMbuf(std::uint32_t bytes);
    void freeRxMbuf(Addr mbuf, std::uint32_t bytes);
    Addr allocTxMbuf(std::uint32_t bytes);
    void rebuildRxMap();
    void shedStaleAccepts();
    void driverRx(Process &p);
    void netisrDeliver(Process &p);
    void netSend(Process &p);
    void nicTick(Cycle now);

    // fault injection
    void injectMce(Cycle now);

    Process *procOf(ThreadState &t);

    friend class KernelTestPeer;

    Params params_;
    /** All cores' pipelines in core order. */
    std::vector<Pipeline *> pipes_;
    Uncore &uncore_;
    Probes *probes_ = nullptr;
    FaultPlan *faults_ = nullptr;
    InvariantAuditor *auditor_ = nullptr;
    PhysMem &mem_;
    const KernelCode &kc_;
    ImageSet kernelIs_; ///< image set for kernel-only threads

    std::unique_ptr<AddrSpace> kernelSpace_;
    std::vector<std::unique_ptr<Process>> procs_;
    /** Per-core run queues. */
    std::vector<std::deque<Process *>> runqs_;
    std::vector<Process *> idleForCtx_;
    std::vector<Process *> curProc_;
    std::vector<std::deque<Process *>> waiters_; // by WaitChan

    Network net_;
    std::unique_ptr<ClientPopulation> clients_;
    std::vector<Connection> conns_;
    std::deque<int> acceptQ_;
    std::deque<Packet> nicRing_;
    /** Per-core protocol queues (per-core netisr delivery). */
    std::vector<std::deque<Packet>> protoQs_;
    std::unordered_map<std::uint64_t, Frame> bufcache_;
    /** Shared text frames per image (for shareText processes). */
    std::unordered_map<const CodeImage *, std::vector<Frame>>
        sharedText_;

    Asn nextAsn_ = 1;
    Addr mbufCursor_ = 0;
    Cycle nextNicAt_ = 0;
    Cycle nowCycle_ = 0;
    Cycle tlbLockFreeAt_ = 0;
    std::vector<Cycle> nextTimerAt_;
    int nextIntrCtx_ = 0;
    Rng rng_;

    // SMP state (inert on one core: no lock contends, no other core
    // receives a shootdown or has a queue to steal from).
    Cycle lastHookCycle_ = 0;
    KLock connLock_;
    KLock mbufLock_;
    std::vector<KLock> schedLocks_;
    std::vector<std::uint64_t> lockSpinByCore_;
    std::uint64_t steals_ = 0;
    std::uint64_t shootdownIpis_ = 0;
    std::uint64_t shootdownsDelivered_ = 0;
    /** IPIs raised but not yet delivered (audit invariant). */
    std::uint64_t pendingShootdowns_ = 0;

    CounterMap mmEntries_;
    CounterMap syscalls_;
    std::uint64_t requestsServed_ = 0;
    std::uint64_t diskReads_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t wraparounds_ = 0;
    std::uint64_t synDrops_ = 0;
    std::uint64_t backlogDrops_ = 0;
    std::uint64_t mceKills_ = 0;
    std::size_t faultLogEmitted_ = 0;

    // Overload protection (inert in default runs: admit_ is null and
    // the accounted allocators are never called).
    std::unique_ptr<AdmissionControl> admit_;
    /** RX-region unit bitmap (96 x 2KB units; see netstack.cc). */
    std::array<std::uint64_t, 2> mbufRxMap_{};
    Addr mbufTxCursor_ = 0;
    std::uint64_t admitDropTail_ = 0;
    std::uint64_t admitRedDrops_ = 0;
    std::uint64_t admitShed_ = 0;
    std::uint64_t mbufExhausted_ = 0;
    std::uint64_t mbufTxWraps_ = 0;
};

} // namespace smtos

#endif // SMTOS_KERNEL_KERNEL_H
