/**
 * @file
 * Cursor tests: CFG walking, branch semantics, calls/returns,
 * checkpoint/restore, fault stacks, retry replay, address generation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <set>

#include "isa/codegen.h"
#include "isa/cursor.h"
#include "kernel/layout.h"

using namespace smtos;

namespace {

/** A tiny two-image fixture: user image + "kernel" image. */
class CursorTest : public testing::Test
{
  protected:
    CursorTest()
        : user_("user", userTextBase), kernel_("kern", kernelBase),
          gu_(user_, CodeProfile{}, 1), gk_(kernel_, CodeProfile{}, 2)
    {
    }

    ImageSet
    is() const
    {
        return ImageSet{&user_, &kernel_};
    }

    CodeImage user_;
    CodeImage kernel_;
    CodeGen gu_;
    CodeGen gk_;
    ThreadIprs iprs_;
    MemRegion regions_[maxRegions] = {};
};

} // namespace

TEST_F(CursorTest, SequentialWalkAndFallthrough)
{
    user_.beginFunction("main", -1);
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeAlu());
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(0, false, 1);
    EXPECT_EQ(c.currentPc(is()), userTextBase);
    c.stepSequential(is());
    EXPECT_EQ(c.currentPc(is()), userTextBase + 4);
    c.stepSequential(is()); // falls into block 1
    EXPECT_EQ(c.top().block, 1);
    EXPECT_EQ(c.top().instrIdx, 0);
}

TEST_F(CursorTest, ModeFollowsFrames)
{
    user_.beginFunction("main", -1);
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();
    kernel_.beginFunction("svc", 1);
    kernel_.beginBlock();
    kernel_.emit(gk_.makeReturn());
    kernel_.beginFunction("pal", 2, true);
    kernel_.beginBlock();
    kernel_.emit(gk_.makePalReturn());
    kernel_.finalize();

    Cursor c;
    c.reset(0, false, 1);
    EXPECT_EQ(c.mode(is()), Mode::User);
    c.push(0, true);
    EXPECT_EQ(c.mode(is()), Mode::Kernel);
    c.push(1, true);
    EXPECT_EQ(c.mode(is()), Mode::Pal);
    c.pop();
    c.pop();
    EXPECT_EQ(c.mode(is()), Mode::User);
}

TEST_F(CursorTest, LoopBranchCountsTrips)
{
    user_.beginFunction("main", -1);
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeLoop(0, 3, 0)); // self-loop, 3 trips
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(0, false, 1);
    int taken = 0;
    for (int iter = 0; iter < 3; ++iter) {
        c.stepSequential(is()); // past the alu
        BranchPreview bp = c.previewBranch(is(), iprs_);
        taken += bp.taken;
        c.followBranch(is(), bp, bp.taken);
        if (!bp.taken)
            break;
    }
    EXPECT_EQ(taken, 2); // taken twice, falls out on the 3rd
    EXPECT_EQ(c.top().block, 1);
}

TEST_F(CursorTest, DynamicTripFromIprs)
{
    user_.beginFunction("main", -1);
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeLoop(0, dynamicTrip, 0, 1)); // serviceTrip
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();

    iprs_.serviceTrip = 5;
    Cursor c;
    c.reset(0, false, 1);
    int executions = 0;
    while (true) {
        ++executions;
        c.stepSequential(is());
        BranchPreview bp = c.previewBranch(is(), iprs_);
        c.followBranch(is(), bp, bp.taken);
        if (!bp.taken)
            break;
    }
    EXPECT_EQ(executions, 5);
}

TEST_F(CursorTest, CallPushesAndReturnResumes)
{
    kernel_.finalize();
    user_.beginFunction("leaf", -1); // func 0
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeReturn());
    user_.beginFunction("main", -1); // func 1
    user_.beginBlock();
    user_.emit(gu_.makeCall(0));
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(1, false, 1);
    BranchPreview call = c.previewBranch(is(), iprs_);
    EXPECT_EQ(call.kind, BranchPreview::Kind::Call);
    EXPECT_EQ(call.targetPc, userTextBase); // leaf entry
    c.followBranch(is(), call, true);
    EXPECT_EQ(c.depth(), 2);
    EXPECT_EQ(c.top().func, 0);
    // Return address is main's next instruction (block 1).
    const Addr ret_pc = c.parentPc(is());
    c.stepSequential(is()); // leaf's alu
    BranchPreview ret = c.previewBranch(is(), iprs_);
    EXPECT_EQ(ret.kind, BranchPreview::Kind::Ret);
    EXPECT_EQ(ret.targetPc, ret_pc);
    c.followBranch(is(), ret, true);
    EXPECT_EQ(c.depth(), 1);
    EXPECT_EQ(c.currentPc(is()), ret_pc);
}

TEST_F(CursorTest, WrongPathReturnUnderflowSticks)
{
    kernel_.finalize();
    user_.beginFunction("main", -1);
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(0, false, 1);
    c.setWrongPath(true);
    BranchPreview bp = c.previewBranch(is(), iprs_);
    c.followBranch(is(), bp, true);
    EXPECT_TRUE(c.stuck());
}

TEST_F(CursorTest, CheckpointRestoreIsExact)
{
    kernel_.finalize();
    user_.beginFunction("main", -1);
    for (int i = 0; i < 4; ++i) {
        user_.beginBlock();
        user_.emit(gu_.makeCond(0, 0.5)); // rng-consuming branch
    }
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(0, false, 99);
    Cursor cp = c; // checkpoint
    BranchPreview b1 = c.previewBranch(is(), iprs_);
    // Restore and re-preview: identical stochastic outcome.
    c = cp;
    BranchPreview b2 = c.previewBranch(is(), iprs_);
    EXPECT_EQ(b1.taken, b2.taken);
}

TEST_F(CursorTest, FaultStackNests)
{
    Cursor c;
    FaultRec a;
    a.vpn = 1;
    FaultRec b;
    b.vpn = 2;
    c.pushFault(a);
    c.pushFault(b);
    EXPECT_EQ(c.topFault().vpn, 2u);
    EXPECT_EQ(c.popFault().vpn, 2u);
    EXPECT_EQ(c.popFault().vpn, 1u);
    EXPECT_FALSE(c.hasFault());
}

TEST_F(CursorTest, FaultStackRewindsWithCheckpoint)
{
    Cursor c;
    FaultRec a;
    a.vpn = 7;
    Cursor cp = c;
    c.pushFault(a);
    EXPECT_TRUE(c.hasFault());
    c = cp; // squash restores the pre-fault state
    EXPECT_FALSE(c.hasFault());
}

TEST_F(CursorTest, RetryVaddrConsumedOnceAtDepth)
{
    Cursor c;
    c.reset(0, false, 1);
    c.setRetryVaddr(0xdead0);
    Addr v = 0;
    EXPECT_TRUE(c.takeRetryVaddr(v));
    EXPECT_EQ(v, 0xdead0u);
    EXPECT_FALSE(c.takeRetryVaddr(v)); // consumed
}

TEST_F(CursorTest, RetryVaddrIgnoredAtDifferentDepth)
{
    Cursor c;
    c.reset(0, false, 1);
    c.setRetryVaddr(0xdead0);
    c.push(0, true); // handler frame on top
    Addr v = 0;
    EXPECT_FALSE(c.takeRetryVaddr(v)); // depth differs
    c.pop();
    EXPECT_TRUE(c.takeRetryVaddr(v));
}

TEST_F(CursorTest, PteWalkAddressComesFromFaultTop)
{
    Cursor c;
    c.reset(0, false, 1);
    FaultRec r;
    r.pteAddr = 0x12340;
    c.pushFault(r);
    Instr in;
    in.op = Op::LoadPhys;
    in.pattern = MemPattern::PteWalk;
    EXPECT_EQ(c.memAddress(in, regions_, iprs_), 0x12340u);
}

TEST_F(CursorTest, FrameTouchWalksFault)
{
    Cursor c;
    c.reset(0, false, 1);
    FaultRec r;
    r.frame = 5;
    c.pushFault(r);
    Instr in;
    in.op = Op::StorePhys;
    in.pattern = MemPattern::FrameTouch;
    in.stride = 64;
    EXPECT_EQ(c.memAddress(in, regions_, iprs_), 5u * 4096u);
}

TEST_F(CursorTest, CopyPatternsTrackLoopCounter)
{
    kernel_.finalize();
    user_.beginFunction("main", -1);
    user_.beginBlock();
    Instr ld = gu_.makeLoad(MemPattern::CopySrc, 0, 0, 64, true);
    user_.emit(ld);
    user_.emit(gu_.makeLoop(0, 4, 0));
    user_.beginBlock();
    user_.emit(gu_.makeReturn());
    user_.finalize();

    iprs_.copySrc = 0x100000;
    Cursor c;
    c.reset(0, false, 1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4; ++i) {
        addrs.push_back(
            c.memAddress(c.currentInstr(is()), regions_, iprs_));
        c.stepSequential(is());
        BranchPreview bp = c.previewBranch(is(), iprs_);
        c.followBranch(is(), bp, bp.taken);
        if (!bp.taken)
            break;
    }
    ASSERT_EQ(addrs.size(), 4u);
    EXPECT_EQ(addrs[0], 0x100000u);
    EXPECT_EQ(addrs[1], 0x100040u);
    EXPECT_EQ(addrs[3], 0x1000c0u);
}

TEST_F(CursorTest, SeqStreamStaysInRegion)
{
    Cursor c;
    c.reset(0, false, 1);
    regions_[1] = MemRegion{0x30000000, 1 << 20};
    Instr in;
    in.op = Op::Load;
    in.pattern = MemPattern::SeqStream;
    in.region = 1;
    in.stride = 64;
    for (int i = 0; i < 10000; ++i) {
        Addr a = c.memAddress(in, regions_, iprs_);
        ASSERT_GE(a, 0x30000000u);
        ASSERT_LT(a, 0x30000000u + (1 << 20));
    }
}

TEST_F(CursorTest, RandomWindowHasLocality)
{
    Cursor c;
    c.reset(0, false, 1);
    regions_[0] = MemRegion{0x20000000, 8 << 20};
    Instr in;
    in.op = Op::Load;
    in.pattern = MemPattern::RandomInRegion;
    in.region = 0;
    in.stride = 32;
    // Successive addresses must fall within a small window, not
    // spread across the whole 8MB region.
    std::set<Addr> pages;
    for (int i = 0; i < 1000; ++i)
        pages.insert(pageOf(c.memAddress(in, regions_, iprs_)));
    EXPECT_LT(pages.size(), 16u);
}

TEST_F(CursorTest, TriviallyCopyable)
{
    EXPECT_TRUE(std::is_trivially_copyable_v<Cursor>);
}

TEST_F(CursorTest, IndirectTargetsWithinFan)
{
    kernel_.finalize();
    user_.beginFunction("main", -1);
    user_.beginBlock();
    Instr ij;
    ij.op = Op::IndirectJump;
    ij.targetBlock = 1;
    ij.indirectFan = 3;
    user_.emit(ij);
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.beginBlock();
    user_.emit(gu_.makeAlu());
    user_.emit(gu_.makeReturn());
    user_.finalize();

    Cursor c;
    c.reset(0, false, 5);
    for (int i = 0; i < 50; ++i) {
        Cursor copy = c;
        BranchPreview bp = copy.previewBranch(is(), iprs_);
        EXPECT_GE(bp.targetBlock, 1);
        EXPECT_LE(bp.targetBlock, 3);
    }
}

// Snapshots copy a cursor as raw bytes, so its object bytes must be a
// function of its state: no padding byte may keep whatever the storage
// held before construction.
TEST(CursorBytes, ObjectBytesAreAFunctionOfState)
{
    alignas(Cursor) unsigned char a[sizeof(Cursor)];
    alignas(Cursor) unsigned char b[sizeof(Cursor)];
    std::memset(a, 0xAA, sizeof a);
    std::memset(b, 0x55, sizeof b);
    Cursor *ca = new (a) Cursor;
    Cursor *cb = new (b) Cursor;
    ca->reset(3, true, 11);
    cb->reset(3, true, 11);
    EXPECT_EQ(std::memcmp(ca, cb, sizeof(Cursor)), 0);
}
