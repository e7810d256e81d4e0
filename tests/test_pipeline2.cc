/**
 * @file
 * Deeper pipeline scenarios: issue-width enforcement, serializing
 * ordering, interrupt interleaving with kernel code, target
 * mispredictions, filter modes, fetch policies, and multi-context
 * fairness.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "isa/codegen.h"
#include "kernel/layout.h"
#include "obs/profiler.h"
#include "vm/physmem.h"

using namespace smtos;

namespace {

class RecorderOs : public OsCallbacks
{
  public:
    RecorderOs(Tlb &itlb, Tlb &dtlb) : itlb_(itlb), dtlb_(dtlb) {}

    void
    dtlbMiss(ThreadState &t, Addr vaddr) override
    {
        AccessInfo who{t.id, Mode::Pal, 0};
        dtlb_.insert(pageOf(vaddr), t.space->asn(), pageOf(vaddr),
                     who);
        ++dtlbMisses;
    }

    void
    itlbMiss(ThreadState &t, Addr pc) override
    {
        AccessInfo who{t.id, Mode::Pal, 0};
        itlb_.insert(pageOf(pc), t.space->asn(), pageOf(pc), who);
    }

    void
    serializing(Context &, ThreadState &t, const Instr &in) override
    {
        order.push_back(in.op == Op::Syscall ? int(in.payload) : -1);
        t.cursor.setStuck(false);
        if (in.op == Op::Halt)
            t.cursor.setStuck(true);
        else
            t.cursor.stepSequential(images);
    }

    void
    interrupt(Context &, ThreadState &, std::uint16_t v) override
    {
        interrupts.push_back(v);
    }

    void cycleHook(Cycle) override {}

    Addr
    magicTranslate(ThreadState &, Addr vaddr, bool) override
    {
        return vaddr;
    }

    ImageSet images;
    Tlb &itlb_;
    Tlb &dtlb_;
    std::vector<int> order;
    std::vector<int> interrupts;
    int dtlbMisses = 0;
};

class Pipeline2 : public testing::Test
{
  protected:
    Pipeline2()
        : user(std::make_unique<CodeImage>("u", userTextBase)),
          kernel(std::make_unique<CodeImage>("k", kernelBase)),
          gu(*user, CodeProfile{}, 3), gk(*kernel, CodeProfile{}, 4)
    {
    }

    void
    wire(CoreParams cp = CoreParams{})
    {
        if (!kernel->finalized())
            kernel->finalize();
        uncore = std::make_unique<Uncore>(HierarchyParams{});
        hier = std::make_unique<Hierarchy>(HierarchyParams{}, *uncore);
        pipe = std::make_unique<Pipeline>(cp, *hier, kernel.get());
        os = std::make_unique<RecorderOs>(pipe->itlb(), pipe->dtlb());
        os->images = ImageSet{user.get(), kernel.get()};
        pipe->setOs(os.get());
        mem = std::make_unique<PhysMem>();
        space = std::make_unique<AddrSpace>(1, *mem);
        space->setAsn(1);
        for (Addr vpn = pageOf(userTextBase);
             vpn < pageOf(userTextBase) + 256; ++vpn)
            space->mapShared(vpn, vpn);
    }

    ThreadState &
    makeThread(int entry, ThreadId id = 0)
    {
        auto t = std::make_unique<ThreadState>();
        t->id = id;
        t->space = space.get();
        t->userImage = user.get();
        t->cursor.reset(entry, false, 11 + id);
        t->regions[0] = MemRegion{0x20000000, 1 << 16};
        t->regions[1] = MemRegion{0x30000000, 1 << 16};
        t->regions[2] = MemRegion{0x70000000, 1 << 16};
        threads.push_back(std::move(t));
        return *threads.back();
    }

    std::unique_ptr<CodeImage> user, kernel;
    CodeGen gu, gk;
    std::unique_ptr<Uncore> uncore;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<Pipeline> pipe;
    std::unique_ptr<RecorderOs> os;
    std::unique_ptr<PhysMem> mem;
    std::unique_ptr<AddrSpace> space;
    std::vector<std::unique_ptr<ThreadState>> threads;
};

} // namespace

TEST_F(Pipeline2, SyscallsCommitInProgramOrder)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeSyscall(1));
    user->emit(gu.makeAlu());
    user->emit(gu.makeSyscall(2));
    user->emit(gu.makeAlu());
    user->emit(gu.makeSyscall(3));
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(200);
    ASSERT_GE(os->order.size(), 6u);
    for (size_t i = 0; i + 2 < 6; i += 3) {
        EXPECT_EQ(os->order[i], 1);
        EXPECT_EQ(os->order[i + 1], 2);
        EXPECT_EQ(os->order[i + 2], 3);
    }
}

TEST_F(Pipeline2, IssueNeverExceedsIntUnits)
{
    // 12 independent ALUs per block: issue is capped by the 6 int
    // units, so IPC can approach but never exceed 6.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 24; ++i) {
        Instr in;
        in.op = Op::IntAlu;
        in.srcA = static_cast<std::uint8_t>(i % 8);
        in.dest = static_cast<std::uint8_t>(8 + (i % 16));
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0, 0));
    pipe->bindThread(1, &makeThread(0, 1));
    pipe->runInstrs(30000);
    EXPECT_LE(pipe->stats().ipc(), 6.05);
    EXPECT_GT(pipe->stats().ipc(), 3.0);
}

TEST_F(Pipeline2, EightContextsSaturateIssue)
{
    const int f = gu.genFunction("main", 6, {}, -1, true);
    user->finalize();
    CoreParams cp;
    cp.numContexts = 8;
    wire(cp);
    for (int c = 0; c < 8; ++c)
        pipe->bindThread(c, &makeThread(f, c));
    pipe->runInstrs(40000);
    EXPECT_GT(pipe->stats().ipc(), 1.2);
    EXPECT_GT(pipe->stats().maxIssueCycles, 0u);
}

TEST_F(Pipeline2, ReturnsPredictedByRas)
{
    // Tight call/return chains: the per-context RAS should make
    // return-target mispredictions rare.
    const int leaf = gu.genFunction("leaf", 2, {});
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCall(leaf));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCall(leaf));
    user->beginBlock();
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(1));
    pipe->runInstrs(20000);
    const auto &s = pipe->stats();
    EXPECT_LT(static_cast<double>(s.targetMispred[0]),
              0.02 * static_cast<double>(s.totalRetired()));
}

TEST_F(Pipeline2, IndirectJumpsMissTargetsSometimes)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    Instr ij;
    ij.op = Op::IndirectJump;
    ij.srcA = 1;
    ij.targetBlock = 1;
    ij.indirectFan = 4;
    user->emit(ij);
    for (int b = 0; b < 4; ++b) {
        user->beginBlock();
        user->emit(gu.makeAlu());
        user->emit(gu.makeJump(0));
    }
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(20000);
    EXPECT_GT(pipe->stats().targetMispred[0], 50u);
    EXPECT_GT(pipe->btb().wrongTargetHits(), 10u);
}

TEST_F(Pipeline2, InterruptDuringKernelFramesNests)
{
    // Thread running a kernel loop receives an interrupt; the
    // handler is whatever the OS pushes — here the recorder just
    // notes delivery, which must still happen while in kernel mode.
    const int kf = gk.genFunction("kloop", 4, {}, 7, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5); // start in kernel code
    t.userImage = user.get();
    pipe->bindThread(0, &t);
    pipe->runInstrs(500);
    pipe->raiseInterrupt(0, 9);
    pipe->runInstrs(500);
    ASSERT_EQ(os->interrupts.size(), 1u);
    EXPECT_EQ(os->interrupts[0], 9);
}

TEST_F(Pipeline2, KernelTagAttributionFollowsFunctions)
{
    const int kf = gk.genFunction("tagged", 5, {}, 13, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5);
    pipe->bindThread(0, &t);
    pipe->runInstrs(2000);
    EXPECT_GT(pipe->stats().retiredByTag[13], 1500u);
}

TEST_F(Pipeline2, FilterPrivilegedBranchesPerfect)
{
    const int kf = gk.genFunction("kloop", 8, {}, 7, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    pipe->setFilterPrivilegedBranches(true);
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5);
    pipe->bindThread(0, &t);
    pipe->runInstrs(5000);
    // Kernel branches neither mispredict nor touch the BTB.
    EXPECT_EQ(pipe->stats().condMispred[1], 0u);
    EXPECT_EQ(pipe->btb().stats().totalAccesses(), 0u);
}

TEST_F(Pipeline2, RoundRobinFetchStillProgressesAll)
{
    const int f = gu.genFunction("main", 5, {}, -1, true);
    user->finalize();
    CoreParams cp;
    cp.numContexts = 4;
    cp.fetchPolicy = FetchPolicy::RoundRobin;
    wire(cp);
    for (int c = 0; c < 4; ++c)
        pipe->bindThread(c, &makeThread(f, c));
    pipe->runInstrs(20000);
    for (auto &t : threads)
        EXPECT_GT(t->cursor.retired, 1000u);
}

TEST_F(Pipeline2, DtlbTrapInsideLoopRetriesExactAddress)
{
    // A store walking fresh pages: every page boundary traps once;
    // the store must re-execute with the same address (no livelock).
    user->beginFunction("main", -1);
    user->beginBlock();
    Instr st = gu.makeStore(MemPattern::SeqStream, 1, 0, 512, false);
    user->emit(st);
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(30000);
    // ~30000/3 stores * 512B stride = ~5MB walked -> ~16 pages of the
    // 64KB region, each trapping exactly once per wrap.
    EXPECT_GT(os->dtlbMisses, 10);
    EXPECT_LT(os->dtlbMisses, 60);
}

TEST_F(Pipeline2, WrongPathFetchDoesNotReachOs)
{
    // A syscall sits on the not-taken arm of a strongly-taken branch:
    // wrong-path fetch may reach it, but it must never commit.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.97)); // almost always skips
    user->beginBlock();
    user->emit(gu.makeSyscall(42));
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(20000);
    // The syscall commits only as often as the branch actually falls
    // through (~3%), never from wrong-path fetches.
    std::size_t syscalls = 0;
    for (int v : os->order)
        syscalls += (v == 42);
    EXPECT_LT(syscalls, 400u);
    EXPECT_GT(syscalls, 20u);
}

TEST_F(Pipeline2, SquashReleasesRenameRegisters)
{
    // Heavy misprediction with dest-writing wrong paths: if rename
    // registers leaked on squash the pipeline would wedge.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    for (int i = 0; i < 10; ++i)
        user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(60000); // would panic on wedge via the watchdog
    EXPECT_GE(pipe->stats().totalRetired(), 60000u);
}

TEST_F(Pipeline2, ZeroIssueAndZeroFetchTracked)
{
    // A serial multiply chain guarantees empty-issue cycles.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 4; ++i) {
        Instr in;
        in.op = Op::IntMul;
        in.srcA = 1;
        in.dest = 1;
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(5000);
    EXPECT_GT(pipe->stats().zeroIssueCycles, 1000u);
    EXPECT_GT(pipe->stats().zeroFetchCycles, 100u);
}

TEST_F(Pipeline2, SuperscalarHasSevenStagePenalty)
{
    // Same unpredictable-branch code: the 9-stage SMT pays a larger
    // mispredict penalty than the 7-stage superscalar.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();

    CoreParams nine;
    nine.numContexts = 1;
    nine.pipelineStages = 9;
    wire(nine);
    pipe->bindThread(0, &makeThread(0, 0));
    pipe->runInstrs(30000);
    const Cycle c9 = pipe->now();

    CoreParams seven;
    seven.numContexts = 1;
    seven.pipelineStages = 7;
    wire(seven);
    pipe->bindThread(0, &makeThread(0, 1));
    pipe->runInstrs(30000);
    const Cycle c7 = pipe->now();
    EXPECT_LT(c7, c9);
}

TEST_F(Pipeline2, FpDestinationUopsKeepIssueQueueAccounting)
{
    // Loads and a syscall that write FP registers wait in the FP issue
    // queue. Fetch, issue, squash (the loads' first-touch DTLB traps)
    // and serializing commit must all agree on that, or an issue-queue
    // count drifts out of range.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int k = 0; k < 8; ++k) {
        Instr ld = gu.makeLoad(MemPattern::SeqStream, 1, 0, 64, false);
        ld.dest = static_cast<std::uint8_t>(numIntRegs + k);
        user->emit(ld);
    }
    Instr sc = gu.makeSyscall(1);
    sc.dest = numIntRegs + 8;
    user->emit(sc);
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    for (int i = 0; i < 3000; ++i) {
        pipe->runCycles(1);
        ASSERT_EQ(pipe->auditInvariants(), "") << "cycle " << pipe->now();
    }
    EXPECT_GT(os->dtlbMisses, 0);
    EXPECT_GE(os->order.size(), 2u);
}

TEST_F(Pipeline2, IssueExaminesTheOldest24WaitingUopsOfAContext)
{
    // Each pass: a syscall (which drains the window, so every pass
    // starts empty), a physical load that misses to DRAM, N ALU ops
    // that depend on it, one independent ALU op, and the loop jump.
    // Issue only looks at a context's oldest 24 unissued,
    // non-serializing uops, so the independent op issues a few cycles
    // after the load when N = 23, but waits for the load's dependents
    // (a DRAM latency later) when N = 24.
    auto pass = [&](const char *name, int dependents) {
        const int f = user->beginFunction(name, -1);
        user->beginBlock();
        user->emit(gu.makeSyscall(1));
        Instr ld = gu.makeLoad(MemPattern::SeqStream, 1, 0, 64, true);
        ld.srcA = regNone;
        ld.dest = 1;
        user->emit(ld);
        for (int k = 0; k < dependents; ++k) {
            Instr dep;
            dep.op = Op::IntAlu;
            dep.srcA = 1;
            dep.dest = static_cast<std::uint8_t>(2 + k);
            user->emit(dep);
        }
        Instr ready;
        ready.op = Op::IntAlu;
        ready.dest = 31;
        user->emit(ready);
        user->emit(gu.makeJump(0));
        return f;
    };
    const int behind23 = pass("behind23", 23);
    const int behind24 = pass("behind24", 24);
    user->finalize();

    // Cycles from the load's issue to the next issue, in the second
    // pass (the first warms the I-cache and ITLB).
    auto gapAfterLoad = [&](int func, ThreadId tid) {
        wire();
        pipe->bindThread(0, &makeThread(func, tid));
        while (os->order.size() < 2)
            pipe->runCycles(1);
        const std::uint64_t base = pipe->stats().issued;
        while (pipe->stats().issued == base)
            pipe->runCycles(1);
        EXPECT_EQ(pipe->stats().issued, base + 1); // the load alone
        const Cycle load_at = pipe->now();
        while (pipe->stats().issued == base + 1)
            pipe->runCycles(1);
        return pipe->now() - load_at;
    };
    EXPECT_LT(gapAfterLoad(behind23, 0), 10u);
    EXPECT_GT(gapAfterLoad(behind24, 1), 60u);
}

TEST_F(Pipeline2, BtbMissBubbleIsChargedToBranchHold)
{
    // Two blocks, each ending in a jump the BTB has not seen. Each
    // jump's first fetch costs a one-cycle decode-redirect bubble; the
    // profiler must charge it to branch-hold, not to the cold I-cache
    // miss that stalled the context before it.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(1));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    CoreParams cp;
    cp.numContexts = 1;
    wire(cp);
    CycleProfiler prof;
    prof.configure(cp.fetchWidth, cp.intUnits + cp.fpUnits, 1);
    Probes probes;
    probes.bind(&prof, nullptr);
    probes.begin(1);
    pipe->setProbes(&probes);
    pipe->bindThread(0, &makeThread(0));
    pipe->runCycles(400);
    EXPECT_GT(prof.fetchSlotsLost(SlotCause::IcacheMiss), 0u);
    EXPECT_EQ(prof.fetchSlotsLost(SlotCause::BranchHold),
              2u * static_cast<std::uint64_t>(cp.fetchWidth));
}
