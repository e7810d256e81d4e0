/**
 * @file
 * Pipeline tests against hand-built images and a stub OS model:
 * in-order commit, dependence stalls, mispredict squash/recovery,
 * serializing instructions, ICOUNT fairness, TLB traps.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "isa/codegen.h"
#include "kernel/layout.h"
#include "vm/physmem.h"

using namespace smtos;

namespace {

/** Minimal OS: identity translation, counts callbacks. */
class StubOs : public OsCallbacks
{
  public:
    explicit StubOs(Tlb &itlb, Tlb &dtlb) : itlb_(itlb), dtlb_(dtlb) {}

    void
    dtlbMiss(ThreadState &t, Addr vaddr) override
    {
        ++dtlbMisses;
        // Instant software refill without handler code.
        AccessInfo who{t.id, Mode::Pal, 0};
        dtlb_.insert(pageOf(vaddr), t.space->asn(), pageOf(vaddr),
                     who);
    }

    void
    itlbMiss(ThreadState &t, Addr pc) override
    {
        ++itlbMisses;
        AccessInfo who{t.id, Mode::Pal, 0};
        itlb_.insert(pageOf(pc), t.space->asn(), pageOf(pc), who);
    }

    void
    serializing(Context &ctx, ThreadState &t,
                const Instr &in) override
    {
        (void)ctx;
        ++serializations;
        lastMagic = in.magic;
        lastSyscall = in.payload;
        t.cursor.setStuck(false);
        if (in.op != Op::Halt) {
            t.cursor.stepSequential(images);
        } else {
            ++halts;
            t.cursor.setStuck(true);
        }
    }

    void
    interrupt(Context &ctx, ThreadState &t,
              std::uint16_t vector) override
    {
        (void)ctx;
        (void)t;
        (void)vector;
        ++interrupts;
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
    int dtlbMisses = 0;
    int itlbMisses = 0;
    int serializations = 0;
    int interrupts = 0;
    int halts = 0;
    MagicOp lastMagic = MagicOp::None;
    std::uint16_t lastSyscall = 0;
};

/** Fixture wiring a 2-context SMT with identity-mapped memory. */
class PipelineTest : public testing::Test
{
  protected:
    PipelineTest()
        : user(std::make_unique<CodeImage>("u", userTextBase)),
          kernel(std::make_unique<CodeImage>("k", kernelBase)),
          gu(*user, CodeProfile{}, 1), gk(*kernel, CodeProfile{}, 2)
    {
    }

    /** Call after building images. */
    void
    wire(int contexts = 2)
    {
        if (!kernel->finalized())
            kernel->finalize();
        CoreParams cp;
        cp.numContexts = contexts;
        uncore = std::make_unique<Uncore>(HierarchyParams{});
        hier = std::make_unique<Hierarchy>(HierarchyParams{}, *uncore);
        pipe = std::make_unique<Pipeline>(cp, *hier, kernel.get());
        os = std::make_unique<StubOs>(pipe->itlb(), pipe->dtlb());
        os->images = ImageSet{user.get(), kernel.get()};
        pipe->setOs(os.get());
        mem = std::make_unique<PhysMem>();
        space = std::make_unique<AddrSpace>(1, *mem);
        space->setAsn(1);
        // Identity-map plenty of pages around the text and data.
        for (Addr vpn = pageOf(userTextBase);
             vpn < pageOf(userTextBase) + 64; ++vpn)
            space->mapShared(vpn, vpn);
    }

    ThreadState &
    makeThread(int entry, ThreadId id = 0)
    {
        auto t = std::make_unique<ThreadState>();
        t->id = id;
        t->space = space.get();
        t->userImage = user.get();
        t->cursor.reset(entry, false, 7 + id);
        t->regions[0] = MemRegion{0x20000000, 1 << 16};
        t->regions[1] = MemRegion{0x30000000, 1 << 16};
        t->regions[2] = MemRegion{0x70000000, 1 << 16};
        threads.push_back(std::move(t));
        return *threads.back();
    }

    std::unique_ptr<CodeImage> user;
    std::unique_ptr<CodeImage> kernel;
    CodeGen gu, gk;
    std::unique_ptr<Uncore> uncore;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<Pipeline> pipe;
    std::unique_ptr<StubOs> os;
    std::unique_ptr<PhysMem> mem;
    std::unique_ptr<AddrSpace> space;
    std::vector<std::unique_ptr<ThreadState>> threads;
};

} // namespace

TEST_F(PipelineTest, RunsStraightLineCode)
{
    const int f = gu.genFunction("main", 4, {}, -1, true);
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(f));
    pipe->runInstrs(5000);
    EXPECT_GE(pipe->stats().totalRetired(), 5000u);
    EXPECT_GT(pipe->stats().ipc(), 0.3);
}

TEST_F(PipelineTest, TwoThreadsBeatOne)
{
    const int f = gu.genFunction("main", 6, {}, -1, true);
    user->finalize();
    wire(2);
    pipe->bindThread(0, &makeThread(f, 0));
    pipe->runInstrs(4000);
    const Cycle c1 = pipe->now();

    // Fresh pipeline with both contexts busy.
    wire(2);
    pipe->bindThread(0, &makeThread(f, 1));
    pipe->bindThread(1, &makeThread(f, 2));
    pipe->runInstrs(8000);
    const Cycle c2 = pipe->now();
    // Two threads retire 2x the work in well under 2x the cycles.
    EXPECT_LT(static_cast<double>(c2),
              1.8 * static_cast<double>(c1));
}

TEST_F(PipelineTest, SerializingInstructionReachesOs)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeSyscall(9));
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(400);
    EXPECT_GT(os->serializations, 0);
    EXPECT_EQ(os->lastSyscall, 9);
}

TEST_F(PipelineTest, MagicPayloadDelivered)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeMagic(MagicOp::NetSend, 5));
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(100);
    EXPECT_EQ(os->lastMagic, MagicOp::NetSend);
}

TEST_F(PipelineTest, HaltStopsThread)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    Instr h;
    h.op = Op::Halt;
    user->emit(h);
    user->emit(gu.makeAlu());
    user->emit(gu.makeReturn());
    const int f2 = gu.genFunction("spin", 3, {}, -1, true);
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0, 0));
    pipe->bindThread(1, &makeThread(f2, 1)); // keeps retiring
    pipe->runInstrs(500);
    EXPECT_EQ(os->halts, 1);
}

TEST_F(PipelineTest, MispredictsAreSquashedAndRecovered)
{
    // A 50/50 branch is unpredictable: wrong paths must be fetched
    // and squashed, and retired count must stay exact.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(20000);
    EXPECT_GT(pipe->stats().squashed, 100u);
    EXPECT_GT(pipe->stats().fetchedWrongPath, 100u);
    EXPECT_GT(pipe->stats().condMispred[0], 50u);
}

TEST_F(PipelineTest, PerfectlyBiasedBranchBarelyMispredicts)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 1.0)); // always taken
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(20000);
    const auto &s = pipe->stats();
    EXPECT_LT(static_cast<double>(s.condMispred[0]) /
                  static_cast<double>(s.condRetired[0]),
              0.02);
}

TEST_F(PipelineTest, DtlbMissTrapsOnce)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    // One load, repeatedly, to a fixed stack page (unmapped at start).
    user->emit(gu.makeLoad(MemPattern::StackFrame, 2, 0, 8, false));
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    ThreadState &t = makeThread(0);
    // Map the stack region pages so the stub can refill them.
    for (Addr vpn = pageOf(0x70000000);
         vpn <= pageOf(0x70000000 + (1 << 16)); ++vpn)
        space->mapShared(vpn, vpn);
    pipe->bindThread(0, &t);
    pipe->runInstrs(5000);
    // The stack region spans 16 pages: a handful of traps, then all
    // translations are cached in the DTLB.
    EXPECT_GT(os->dtlbMisses, 0);
    EXPECT_LE(os->dtlbMisses, 20);
}

TEST_F(PipelineTest, ItlbMissOnFirstFetch)
{
    const int f = gu.genFunction("main", 3, {}, -1, true);
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(f));
    pipe->runInstrs(1000);
    EXPECT_GT(os->itlbMisses, 0);
}

TEST_F(PipelineTest, InterruptDeliveredAfterDrain)
{
    const int f = gu.genFunction("main", 4, {}, -1, true);
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(f));
    pipe->runInstrs(200);
    pipe->raiseInterrupt(0, 3);
    pipe->runInstrs(500);
    EXPECT_EQ(os->interrupts, 1);
}

TEST_F(PipelineTest, RetiredInstructionCountsExact)
{
    const int f = gu.genFunction("main", 5, {}, -1, true);
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(f));
    pipe->runInstrs(3000);
    const auto &s = pipe->stats();
    std::uint64_t mix_total = 0;
    for (int c = 0; c < 2; ++c)
        for (int k = 0; k < numMixClasses; ++k)
            mix_total += s.mix[c][k];
    EXPECT_EQ(mix_total, s.totalRetired());
}

TEST_F(PipelineTest, FetchableContextsSampled)
{
    const int f = gu.genFunction("main", 4, {}, -1, true);
    user->finalize();
    wire(2);
    pipe->bindThread(0, &makeThread(f, 0));
    pipe->bindThread(1, &makeThread(f, 1));
    pipe->runInstrs(2000);
    EXPECT_GT(pipe->stats().fetchableContexts.mean(), 0.5);
    EXPECT_LE(pipe->stats().fetchableContexts.mean(), 2.0);
}

TEST_F(PipelineTest, IdleThreadAccountedAsIdle)
{
    const int f = gu.genFunction("main", 4, {}, -1, true);
    user->finalize();
    wire();
    ThreadState &t = makeThread(f);
    t.isIdleThread = true;
    t.userImage = user.get();
    pipe->bindThread(0, &t);
    pipe->runInstrs(500);
    EXPECT_EQ(pipe->stats()
                  .retired[static_cast<int>(Mode::User)],
              pipe->stats().totalRetired());
    // User-mode code of an idle thread still counts as user; only
    // privileged-mode execution counts as Idle. Run kernel code:
    SUCCEED();
}

TEST_F(PipelineTest, SharedIqThrottlesFetch)
{
    // Long dependence chains through IntMul keep the queue full;
    // the pipeline must still make forward progress.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 8; ++i) {
        Instr in;
        in.op = Op::IntMul;
        in.srcA = 1;
        in.srcB = 1;
        in.dest = 1; // serial chain
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(2000);
    // Serial 8-cycle multiplies: IPC must be near 1/8.
    EXPECT_LT(pipe->stats().ipc(), 0.5);
    EXPECT_GT(pipe->stats().ipc(), 0.05);
}

TEST_F(PipelineTest, IndependentOpsReachHighIpc)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 12; ++i) {
        Instr in;
        in.op = Op::IntAlu;
        in.srcA = static_cast<std::uint8_t>(1 + i);
        in.dest = static_cast<std::uint8_t>(1 + i);
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    pipe->runInstrs(20000);
    EXPECT_GT(pipe->stats().ipc(), 2.0);
}
