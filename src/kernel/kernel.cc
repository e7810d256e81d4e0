#include "kernel/kernel.h"

#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "common/trace.h"
#include "fault/auditor.h"
#include "kernel/tags.h"
#include "obs/probes.h"

namespace smtos {

Kernel::Kernel(const Params &params, const std::vector<Pipeline *> &pipes,
               Uncore &uncore, PhysMem &mem, const KernelCode &kc)
    : params_(params), pipes_(pipes), uncore_(uncore), mem_(mem),
      kc_(kc), kernelIs_{nullptr, &kc.image}, rng_(params.seed)
{
    smtos_assert(!pipes_.empty());
    const auto cores = static_cast<std::size_t>(numCores());
    const auto total = static_cast<std::size_t>(totalContexts());
    runqs_.resize(cores);
    protoQs_.resize(cores);
    schedLocks_.resize(cores);
    lockSpinByCore_.assign(cores, 0);
    waiters_.resize(4);
    conns_.resize(512);
    idleForCtx_.assign(total, nullptr);
    curProc_.assign(total, nullptr);
    nextTimerAt_.assign(total, 0);
    bootKernelSpace();
    if (params_.enableNetwork)
        clients_ = std::make_unique<ClientPopulation>(
            params_.web, params_.seed ^ 0xc11e47ull);
    if (clients_ && params_.openLoop.enabled)
        clients_->setOpenLoop(params_.openLoop);
    if (params_.admit.enabled())
        setAdmission(params_.admit);
    for (Pipeline *p : pipes_)
        p->setOs(this);
}

void
Kernel::setAdmission(const AdmitParams &p)
{
    params_.admit = p;
    admit_ = p.policy != AdmitPolicy::None
                 ? std::make_unique<AdmissionControl>(p)
                 : nullptr;
    if (p.mbufAccounting)
        rebuildRxMap();
}

void
Kernel::setOpenLoop(const OpenLoopParams &p)
{
    params_.openLoop = p;
    if (clients_)
        clients_->setOpenLoop(p);
}

OverloadStats
Kernel::overloadStats() const
{
    OverloadStats o;
    o.enabled = params_.admit.enabled() ||
                (clients_ && clients_->openLoopEnabled());
    if (!o.enabled)
        return o;
    if (clients_) {
        o.offeredArrivals = clients_->arrivals();
        o.arrivalOverflows = clients_->arrivalOverflows();
        o.goodput = clients_->goodput();
        o.clientAborts = clients_->aborts();
        o.slowCompletions = clients_->slowCompletions();
    }
    o.admitDropTail = admitDropTail_;
    o.admitRedDrops = admitRedDrops_;
    o.admitShed = admitShed_;
    o.mbufExhausted = mbufExhausted_;
    o.mbufTxWraps = mbufTxWraps_;
    return o;
}

void
Kernel::bootKernelSpace()
{
    kernelSpace_ = std::make_unique<AddrSpace>(0, mem_);
    kernelSpace_->setAsn(0);

    // Kernel text: identity-mapped global pages over the low reserved
    // physical region.
    const Addr text_pages =
        (kc_.image.textBytes() + pageBytes - 1) / pageBytes;
    for (Addr i = 0; i < text_pages; ++i)
        kernelSpace_->mapShared(pageOf(kernelBase) + i, i);

    // Kernel virtual heap: allocate real frames.
    for (Addr i = 0; i < kernelVirtHeapBytes / pageBytes; ++i)
        kernelSpace_->mapNew(pageOf(kernelVirtHeapBase) + i);
}

void
Kernel::setupRegions(Process &p)
{
    ThreadState &ts = p.ts;
    if (p.isUser()) {
        ts.regions[regUserGlobals] =
            MemRegion{userGlobalsBase, userGlobalsBytes};
        ts.regions[regUserHeap] = MemRegion{userHeapBase,
                                            p.cfg.heapBytes};
        ts.regions[regUserStack] =
            MemRegion{userStackBase, userStackBytes};
        ts.regions[regUserAux] = MemRegion{userAuxBase, userAuxBytes};
    }
    // Kernel data structures are shared-hot: every thread touches
    // the same proc/socket/vm tables, so their windows overlap.
    ts.regions[regKVirt] =
        MemRegion{kernelVirtHeapBase, kernelVirtHeapBytes, true};
    ts.regions[regKPhys] =
        MemRegion{kernelPhysHeapBase, kernelPhysHeapBytes, true};
    ts.regions[regKStack] =
        MemRegion{kernelStackBase(p.pid), kernelStackBytes, false};
    ts.regions[regMbuf] = MemRegion{mbufPoolBase, mbufPoolBytes, true};

    // Map this thread's kernel stack (global, present).
    for (Addr i = 0; i < kernelStackBytes / pageBytes; ++i) {
        const Addr vpn = pageOf(kernelStackBase(p.pid)) + i;
        if (!kernelSpace_->mapped(vpn))
            kernelSpace_->mapNew(vpn);
    }
}

Process &
Kernel::createInternal(const ProcParams &cfg, bool idle)
{
    auto up = std::make_unique<Process>();
    Process &p = *up;
    p.pid = static_cast<int>(procs_.size());
    p.cfg = cfg;
    p.ts.id = p.pid;
    p.ts.seed = cfg.seed;
    p.ts.isIdleThread = idle;
    if (cfg.kind == ProcKind::SpecIntApp ||
        cfg.kind == ProcKind::ApacheServer) {
        p.space = std::make_unique<AddrSpace>(p.pid + 1, mem_);
        p.ts.space = p.space.get();
        p.ts.userImage = cfg.image;
        p.ts.cursor.reset(cfg.entryFunc, false, cfg.seed);
    } else {
        p.ts.space = kernelSpace_.get();
        p.ts.userImage = nullptr;
        p.ts.cursor.reset(cfg.entryFunc, true, cfg.seed);
    }
    p.ts.iprs.serviceTrip = cfg.inputChunks;
    setupRegions(p);

    // Text mapping: shared (Apache) processes map the image's shared
    // frames eagerly; private (SPECInt) text pages fault in lazily.
    if (p.isUser() && cfg.shareText) {
        auto &frames = sharedText_[cfg.image];
        const Addr text_pages =
            (cfg.image->textBytes() + pageBytes - 1) / pageBytes;
        if (frames.empty()) {
            for (Addr i = 0; i < text_pages; ++i)
                frames.push_back(mem_.allocFrame());
        }
        for (Addr i = 0; i < text_pages; ++i)
            p.space->mapShared(pageOf(cfg.image->textBase()) + i,
                               frames[i]);
    }

    procs_.push_back(std::move(up));
    return p;
}

Process &
Kernel::createProcess(const ProcParams &cfg)
{
    Process &p = createInternal(cfg, false);
    // Spread user processes across the cores' run queues; work
    // stealing rebalances from there.
    if (p.isUser())
        p.homeCore = p.pid % numCores();
    if (p.isUser() || cfg.kind == ProcKind::KernelThread) {
        p.state = Process::State::Ready;
        enqueue(&p, cfg.kind == ProcKind::KernelThread);
    }
    return p;
}

void
Kernel::start()
{
    // Netisr protocol threads (kernel threads, scheduled first).
    // On a CMP they are pinned round-robin across the cores so every
    // core drains its own protocol queue.
    if (params_.enableNetwork) {
        for (int i = 0; i < params_.numNetisr; ++i) {
            ProcParams cfg;
            cfg.kind = ProcKind::KernelThread;
            cfg.entryFunc = kc_.netisrLoop[i % netisrVariants];
            cfg.seed = params_.seed ^ (0x9e37ull + i);
            Process &p = createInternal(cfg, false);
            p.homeCore = i % numCores();
            p.state = Process::State::Ready;
            enqueue(&p, true);
        }
    }
    // Per-context idle threads.
    for (int c = 0; c < totalContexts(); ++c) {
        ProcParams cfg;
        cfg.kind = ProcKind::IdleThread;
        cfg.entryFunc = kc_.idleLoop;
        cfg.seed = params_.seed ^ (0x1d1eull + c);
        Process &p = createInternal(cfg, true);
        p.homeCore = coreOf(static_cast<CtxId>(c));
        idleForCtx_[static_cast<size_t>(c)] = &p;
    }
    // Bind initial threads.
    for (int c = 0; c < totalContexts(); ++c) {
        const CtxId gid = static_cast<CtxId>(c);
        switchTo(ctxAt(gid), pickNext(gid));
        nextTimerAt_[static_cast<size_t>(c)] =
            params_.timerQuantum + static_cast<Cycle>(c) * 1013;
    }
    nextNicAt_ = params_.nicInterval;
}

Process *
Kernel::procOf(ThreadState &t)
{
    smtos_assert(t.id >= 0 &&
                 t.id < static_cast<int>(procs_.size()));
    return procs_[static_cast<size_t>(t.id)].get();
}

bool
Kernel::startupComplete() const
{
    for (const auto &p : procs_) {
        if (p->cfg.kind == ProcKind::SpecIntApp &&
            p->filePage < p->cfg.inputChunks)
            return false;
    }
    return true;
}

void
Kernel::serializing(Context &ctx, ThreadState &t, const Instr &in)
{
    Process &p = *procOf(t);
    const ImageSet is{t.userImage, &kc_.image};
    t.cursor.setStuck(false);
    t.cursor.stepSequential(is);

    switch (in.op) {
      case Op::Syscall:
        p.pendingSyscall = in.payload;
        syscalls_.add(sysnoName(in.payload));
        smtos_trace(TraceCat::Syscall, "pid%d %s", p.pid,
                    sysnoName(in.payload));
        if (probes_)
            probes_->syscallEnter(ctx.id, p.pid,
                                  sysnoName(in.payload));
        if (params_.appOnly)
            appOnlySyscall(p);
        else
            t.cursor.push(kc_.sysEntry[p.pid % serviceVariants],
                          true);
        return;
      case Op::Magic:
        doMagic(ctx, p, in);
        return;
      case Op::TlbWrite: {
        if (!t.cursor.hasFault())
            return; // stale handler re-entry; nothing to install
        const FaultRec r = t.cursor.popFault();
        Pipeline &pl = pipeOfCtx(ctx);
        Tlb &tlb = r.itlb ? pl.itlb() : pl.dtlb();
        AddrSpace &sp = r.global ? *kernelSpace_ : *p.space;
        AccessInfo who{p.pid, Mode::Pal, ctx.id};
        tlb.insert(r.vpn, sp.asn(), r.frame, who, r.global != 0);
        return;
      }
      case Op::Halt:
        p.state = Process::State::Exited;
        switchTo(ctx, pickNext(ctx.gid));
        return;
      default:
        smtos_panic("unexpected serializing op %s", opName(in.op));
    }
}

void
Kernel::interrupt(Context &ctx, ThreadState &t, std::uint16_t vector)
{
    Process &p = *procOf(t);
    if (params_.appOnly) {
        // Application-only mode: interrupts have no code cost; timer
        // interrupts still rotate threads so multiprogramming works.
        if (vector == VecTimer || vector == VecResched) {
            if (runnableFor(ctx.core))
                switchTo(ctx, pickNext(ctx.gid));
        }
        return;
    }
    if (vector == VecShootdown) {
        // The TLB was already invalidated synchronously at the unmap;
        // this IPI's handler (the resched path) models only the cost.
        ++shootdownsDelivered_;
        if (pendingShootdowns_ > 0)
            --pendingShootdowns_;
    }
    if (vector == VecMce) {
        // Retry-then-kill recovery: the handler scrubs the reported
        // structure and the victim re-executes; a process that takes
        // machine checks with no forward progress in between (no
        // completed syscall) is killed past the retry limit.
        ++p.mceHits;
        const int limit =
            faults_ ? faults_->params().mceRetryLimit : 3;
        if (p.isUser() &&
            p.mceHits > static_cast<std::uint32_t>(limit)) {
            if (p.conn >= 0) {
                const Connection &cn =
                    conns_[static_cast<size_t>(p.conn)];
                if (probes_ && cn.inUse)
                    probes_->reqDrop("mce-kill", cn.client, cn.reqSeq,
                                     nowCycle_);
                if (params_.admit.mbufAccounting && cn.inUse)
                    freeRxMbuf(cn.mbuf, cn.reqBytes);
                conns_[static_cast<size_t>(p.conn)] = Connection{};
                p.conn = -1;
            }
            ++mceKills_;
            if (faults_)
                faults_->note(nowCycle_, FaultKind::MceKill,
                              static_cast<std::uint64_t>(p.pid));
            smtos_trace(TraceCat::Fault,
                        "pid%d killed after %u machine checks", p.pid,
                        p.mceHits);
            p.state = Process::State::Exited;
            switchTo(ctx, pickNext(ctx.gid));
            return;
        }
        t.cursor.push(kc_.intrMce, true);
        return;
    }
    (void)p;
    int func = kc_.intrResched;
    if (vector == VecNic)
        func = kc_.intrNet;
    else if (vector == VecTimer)
        func = kc_.intrTimer;
    t.cursor.push(func, true);
}

void
Kernel::cycleHook(Cycle now)
{
    // Every core's pipeline invokes the hook each chip cycle;
    // device/timer work must run exactly once per cycle.
    if (now == lastHookCycle_)
        return;
    lastHookCycle_ = now;
    nowCycle_ = now;
    if (faults_ && faults_->mceDue(now))
        injectMce(now);
    if (params_.enableNetwork && now >= nextNicAt_) {
        nicTick(now);
        nextNicAt_ = now + params_.nicInterval;
    }
    for (int c = 0; c < totalContexts(); ++c) {
        auto &next_at = nextTimerAt_[static_cast<size_t>(c)];
        if (next_at != 0 && now >= next_at) {
            next_at = now + params_.timerQuantum;
            if (!params_.appOnly ||
                runnableFor(coreOf(static_cast<CtxId>(c))))
                raiseOn(ctxAt(static_cast<CtxId>(c)), VecTimer);
        }
    }
    if (faults_ && probes_) {
        // Forward freshly logged fault events to the timeline.
        const auto &lg = faults_->log();
        while (faultLogEmitted_ < lg.size()) {
            const FaultEvent &e = lg[faultLogEmitted_++];
            probes_->faultEvent(faultKindName(e.kind), e.cycle, e.a,
                                e.b);
        }
    }
    if (auditor_)
        auditor_->maybeCheck(now);
}

Cycle
Kernel::nextEventAt() const
{
    // Every cycleHook event above polls "now >= at", so returning the
    // exact scheduled cycles lets quiescence fast-forward jump right
    // up to (never past) the next one. Fault-log forwarding needs no
    // horizon: new entries only appear as a side effect of the events
    // already accounted here or of pipeline activity.
    Cycle h = ~Cycle{0};
    if (params_.enableNetwork && nextNicAt_ < h)
        h = nextNicAt_;
    for (const Cycle t : nextTimerAt_)
        if (t != 0 && t < h)
            h = t;
    if (faults_ && faults_->nextMceAt() != 0 &&
        faults_->nextMceAt() < h)
        h = faults_->nextMceAt();
    if (auditor_ && auditor_->nextCheckAt() < h)
        h = auditor_->nextCheckAt();
    return h;
}

void
Kernel::attachFaults(FaultPlan *plan)
{
    faults_ = plan;
    net_.attachFaults(plan);
    if (!plan)
        return;
    if (plan->params().connTableSize > 0)
        conns_.assign(
            static_cast<size_t>(plan->params().connTableSize),
            Connection{});
    if (clients_ && plan->recoveryNeeded())
        clients_->setRecovery(true);
}

void
Kernel::injectMce(Cycle now)
{
    const std::uint64_t pick = faults_->takeMce(now);
    const auto nctx = static_cast<std::uint64_t>(totalContexts());
    const CtxId victim = static_cast<CtxId>(pick % nctx);
    Context &c = ctxAt(victim);
    Pipeline &pl = pipeOfCtx(c);

    // Model the transient fault itself: scrub one translation or one
    // data-cache line; the correct state is re-derived on the next
    // miss, at a performance (never correctness) cost.
    if (((pick >> 8) & 1) != 0) {
        const std::uint64_t idx = pl.dtlb().invalidateIndex(pick >> 16);
        faults_->note(now, FaultKind::MceTlb,
                      static_cast<std::uint64_t>(victim), idx);
    } else {
        const std::uint64_t idx =
            pl.hierarchy().l1d().invalidateIndex(pick >> 16);
        faults_->note(now, FaultKind::MceCache,
                      static_cast<std::uint64_t>(victim), idx);
    }

    if (faults_->params().mceBreakRecovery) {
        // Deliberately broken recovery (test-only): corrupt committed
        // register state and raise no trap. The co-simulation oracle
        // must flag the divergence.
        if (c.hasThread() && !c.thread->isIdleThread) {
            for (int r = 1; r <= 8; ++r)
                c.thread->archRegs[static_cast<size_t>(r)] ^=
                    mixHash(pick, static_cast<std::uint64_t>(r));
            faults_->note(now, FaultKind::MceSilent,
                          static_cast<std::uint64_t>(victim));
        }
        return;
    }
    if (params_.appOnly)
        return; // no handler code to run in application-only mode
    raiseOn(c, VecMce);
}

FaultCounters
Kernel::faultCounters() const
{
    FaultCounters c;
    if (faults_)
        c = faults_->injected();
    // The kernel's own counters are authoritative (they also exist
    // without a plan attached, e.g. conn-table drops under overload).
    c.synDrops = synDrops_;
    c.backlogDrops = backlogDrops_;
    c.mceKills = mceKills_;
    if (clients_) {
        c.retransmits = clients_->retransmits();
        c.clientAborts = clients_->aborts();
    }
    return c;
}

std::string
Kernel::auditInvariants() const
{
    std::ostringstream os;
    if (acceptQ_.size() > conns_.size())
        os << "accept queue (" << acceptQ_.size()
           << ") deeper than connection table (" << conns_.size()
           << ")\n";
    for (int id : acceptQ_) {
        if (id < 0 || id >= static_cast<int>(conns_.size()))
            os << "accept queue holds out-of-range conn " << id
               << "\n";
        else if (!conns_[static_cast<size_t>(id)].inUse)
            os << "accept queue holds free conn " << id << "\n";
    }
    for (int core = 0; core < numCores(); ++core) {
        for (Process *p : runqFor(core)) {
            // pickNext tolerates stale entries; a Running process in
            // the queue is outright corruption (bound twice).
            if (p->state == Process::State::Running)
                os << "core " << core << " run queue holds Running pid "
                   << p->pid << "\n";
        }
    }
    // Shootdown ledger: pendingShootdowns_ must equal the number of
    // contexts holding an undelivered shootdown IPI.
    std::uint64_t pending = 0;
    for (Pipeline *pl : pipes_) {
        for (int c = 0; c < pl->numContexts(); ++c) {
            const Context &cx = pl->ctx(c);
            if (cx.interruptPending && cx.interruptVector == VecShootdown)
                ++pending;
        }
    }
    if (pending != pendingShootdowns_)
        os << "shootdown ledger " << pendingShootdowns_
           << " != pending IPIs " << pending << "\n";
    if (shootdownsDelivered_ + pendingShootdowns_ > shootdownIpis_)
        os << "delivered+pending shootdowns exceed raised ("
           << shootdownsDelivered_ << "+" << pendingShootdowns_ << " > "
           << shootdownIpis_ << ")\n";
    for (size_t cx = 0; cx < curProc_.size(); ++cx) {
        const Process *p = curProc_[cx];
        if (!p)
            continue;
        if (p->runningOn != static_cast<CtxId>(cx))
            os << "ctx" << cx << " runs pid " << p->pid
               << " but runningOn=" << p->runningOn << "\n";
        if (p->state != Process::State::Running)
            os << "ctx" << cx << " runs pid " << p->pid
               << " in a non-Running state\n";
    }
    for (size_t ch = 0; ch < waiters_.size(); ++ch) {
        for (const Process *p : waiters_[ch]) {
            if (p->state != Process::State::Blocked)
                os << "wait channel " << ch << " holds pid " << p->pid
                   << " in a non-Blocked state\n";
        }
    }
    if (params_.admit.mbufAccounting) {
        // Every live RX reference must have its units marked in the
        // map — a clear bit under a live connection means the unit
        // could be handed out again (the exact aliasing the accounted
        // allocator exists to prevent).
        auto marked = [this](Addr mbuf, std::uint32_t bytes) {
            constexpr Addr unit = 2048, rxUnits = 96;
            if (mbuf < mbufPoolBase ||
                mbuf >= mbufPoolBase + rxUnits * unit)
                return true; // legacy/TX address: not tracked
            const Addr u0 = (mbuf - mbufPoolBase) / unit;
            Addr units = (static_cast<Addr>(bytes) + unit - 1) / unit;
            if (units == 0)
                units = 1;
            for (Addr k = 0; k < units && u0 + k < rxUnits; ++k)
                if (!(mbufRxMap_[(u0 + k) >> 6] &
                      (1ull << ((u0 + k) & 63))))
                    return false;
            return true;
        };
        for (size_t i = 0; i < conns_.size(); ++i) {
            const Connection &cn = conns_[i];
            if (cn.inUse && !marked(cn.mbuf, cn.reqBytes))
                os << "conn " << i << " holds unaccounted RX mbuf\n";
        }
        for (int core = 0; core < numCores(); ++core) {
            for (const Packet &pkt : protoQFor(core)) {
                if (!marked(pkt.mbuf, pkt.bytes))
                    os << "protoQ packet holds unaccounted RX mbuf\n";
            }
        }
    }
    return os.str();
}

void
Kernel::dumpState(std::ostream &os) const
{
    os << "cycle " << nowCycle_ << "\n";
    for (int core = 0; core < numCores(); ++core)
        os << "core " << core << ": runq depth " << runqFor(core).size()
           << ", protoQ " << protoQFor(core).size() << "\n";
    os << "acceptQ " << acceptQ_.size() << ", nicRing "
       << nicRing_.size() << "\n";
    for (size_t cx = 0; cx < curProc_.size(); ++cx) {
        const Process *p = curProc_[cx];
        os << "ctx" << cx << ": ";
        if (p)
            os << "pid " << p->pid << "\n";
        else
            os << "(unbound)\n";
    }
    std::size_t connsInUse = 0;
    for (const Connection &cn : conns_)
        if (cn.inUse)
            ++connsInUse;
    os << "connections in use " << connsInUse << "/" << conns_.size()
       << "\n";
    static const char *stateName[] = {"Ready", "Running", "Blocked",
                                      "Exited"};
    for (const auto &up : procs_) {
        const Process &p = *up;
        os << "pid " << p.pid << ": state "
           << stateName[static_cast<int>(p.state)] << ", conn "
           << p.conn << ", waitChan " << p.waitChan << ", mceHits "
           << p.mceHits << ", served " << p.requestsServed << "\n";
    }
}

} // namespace smtos
