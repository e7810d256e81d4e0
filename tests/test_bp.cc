/**
 * @file
 * Branch-prediction tests: McFarling hybrid learning, BTB behavior
 * and classification, return-address stacks.
 */

#include <gtest/gtest.h>

#include "bp/btb.h"
#include "bp/mcfarling.h"
#include "bp/ras.h"
#include "common/rng.h"

using namespace smtos;

namespace {

AccessInfo
user(ThreadId t)
{
    return AccessInfo{t, Mode::User, 0};
}

} // namespace

TEST(McFarling, LearnsAlwaysTaken)
{
    McFarling m;
    const Addr pc = 0x1000;
    for (int i = 0; i < 64; ++i)
        m.train(pc, true);
    EXPECT_TRUE(m.predict(pc));
}

TEST(McFarling, LearnsAlwaysNotTaken)
{
    McFarling m;
    const Addr pc = 0x2000;
    for (int i = 0; i < 64; ++i)
        m.train(pc, false);
    EXPECT_FALSE(m.predict(pc));
}

TEST(McFarling, LocalHistoryLearnsLoopPattern)
{
    // Pattern T T T N repeating: a loop of trip 4. After warmup the
    // predictor should track it nearly perfectly.
    McFarling m;
    const Addr pc = 0x3000;
    int correct = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 4) != 3;
        const bool pred = m.predict(pc);
        if (i > 1000) {
            ++total;
            correct += (pred == taken);
        }
        m.train(pc, taken);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

TEST(McFarling, GlobalHistoryLearnsCorrelation)
{
    // Branch B is taken iff branch A was taken: only the global
    // (history-indexed) component can learn this.
    McFarling m;
    Rng rng(5);
    const Addr a = 0x4000, b = 0x5000;
    int correct = 0, total = 0;
    for (int i = 0; i < 8000; ++i) {
        const bool ta = rng.chance(0.5);
        m.predict(a);
        m.train(a, ta);
        const bool pred = m.predict(b);
        if (i > 4000) {
            ++total;
            correct += (pred == ta);
        }
        m.train(b, ta);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(McFarling, RandomBranchNearChance)
{
    McFarling m;
    Rng rng(17);
    const Addr pc = 0x6000;
    int correct = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const bool t = rng.chance(0.5);
        correct += (m.predict(pc) == t);
        m.train(pc, t);
    }
    EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.06);
}

TEST(McFarling, BiasedBranchBeatsChance)
{
    McFarling m;
    Rng rng(19);
    const Addr pc = 0x7000;
    int correct = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const bool t = rng.chance(0.9);
        correct += (m.predict(pc) == t);
        m.train(pc, t);
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.78);
}

TEST(McFarling, GhrCheckpointRestore)
{
    McFarling m;
    const auto g0 = m.ghr();
    m.pushHistory(true);
    m.pushHistory(false);
    EXPECT_NE(m.ghr(), g0);
    m.setGhr(g0);
    EXPECT_EQ(m.ghr(), g0);
}

TEST(McFarling, SharedHistoryPerturbation)
{
    // Thread interleaving perturbs the shared GHR: the same branch
    // trained in isolation vs interleaved with noise predicts
    // differently at least sometimes (this is the SMT interference
    // effect the paper measures).
    McFarling iso, mixed;
    Rng noise(23);
    const Addr pc = 0x8000;
    int diverged = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool t = (i % 3) != 0;
        if (iso.predict(pc) != mixed.predict(pc))
            ++diverged;
        iso.train(pc, t);
        mixed.train(pc, t);
        mixed.train(pc + 64 * (1 + noise.below(50)),
                    noise.chance(0.5));
    }
    EXPECT_GT(diverged, 0);
}

TEST(Btb, MissThenUpdateThenHit)
{
    Btb b(64, 4);
    auto r = b.lookup(0x1000, user(1));
    EXPECT_FALSE(r.hit);
    b.update(0x1000, 0x2000, user(1));
    r = b.lookup(0x1000, user(1));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.target, 0x2000u);
}

TEST(Btb, UpdateRefreshesTarget)
{
    Btb b(64, 4);
    b.update(0x1000, 0x2000, user(1));
    b.update(0x1000, 0x3000, user(1));
    EXPECT_EQ(b.lookup(0x1000, user(1)).target, 0x3000u);
}

TEST(Btb, SetConflictEvictsLru)
{
    Btb b(8, 2); // 4 sets; pcs 16 bytes apart in same set
    const Addr s = 0x1000;
    const Addr stride = 4 * 4; // sets indexed by pc>>2
    b.update(s + 0 * stride, 1, user(1));
    b.update(s + 1 * stride, 2, user(1));
    b.lookup(s + 0 * stride, user(1)); // refresh LRU of first
    b.update(s + 2 * stride, 3, user(1)); // evicts second
    EXPECT_TRUE(b.present(s + 0 * stride));
    EXPECT_FALSE(b.present(s + 1 * stride));
}

TEST(Btb, EvictionClassified)
{
    Btb b(8, 2);
    const Addr stride = 4 * 4;
    b.lookup(0x1000, user(1));
    b.update(0x1000, 1, user(1));
    b.update(0x1000 + stride, 2, user(2));
    b.update(0x1000 + 2 * stride, 3, user(2)); // evicts 0x1000
    b.lookup(0x1000, user(1));
    EXPECT_EQ(b.stats().cause[0][static_cast<int>(
                  MissCause::Interthread)],
              1u);
}

TEST(Btb, KernelMissRateSeparated)
{
    Btb b(64, 4);
    AccessInfo k{1, Mode::Kernel, 0};
    b.lookup(0x1000, k);
    b.lookup(0x2000, user(2));
    b.update(0x2000, 5, user(2));
    b.lookup(0x2000, user(2));
    EXPECT_DOUBLE_EQ(b.stats().missRatePct(true), 100.0);
    EXPECT_DOUBLE_EQ(b.stats().missRatePct(false), 50.0);
}

TEST(Btb, WrongTargetCounter)
{
    Btb b(64, 4);
    b.noteWrongTarget();
    b.noteWrongTarget();
    EXPECT_EQ(b.wrongTargetHits(), 2u);
    b.resetStats();
    EXPECT_EQ(b.wrongTargetHits(), 0u);
}

TEST(Ras, LifoOrder)
{
    Ras r(8);
    r.push(100);
    r.push(200);
    EXPECT_EQ(r.pop(), 200u);
    EXPECT_EQ(r.pop(), 100u);
}

TEST(Ras, WrapsAroundWhenOverfull)
{
    Ras r(2);
    r.push(1);
    r.push(2);
    r.push(3); // overwrites 1
    EXPECT_EQ(r.pop(), 3u);
    EXPECT_EQ(r.pop(), 2u);
    EXPECT_EQ(r.pop(), 3u); // wrapped: oldest lost
}

TEST(Ras, CheckpointRestoresTop)
{
    Ras r(8);
    r.push(100);
    auto cp = r.save();
    r.push(200);
    r.pop();
    r.pop(); // disturbed
    r.restore(cp);
    EXPECT_EQ(r.pop(), 100u);
}

TEST(Ras, DeepCallChain)
{
    Ras r(16);
    for (Addr i = 0; i < 10; ++i)
        r.push(1000 + i);
    for (Addr i = 0; i < 10; ++i)
        EXPECT_EQ(r.pop(), 1000 + 9 - i);
}

// Parameterized: predictor accuracy must improve monotonically-ish
// with bias strength.
class BpBias : public testing::TestWithParam<double>
{
};

TEST_P(BpBias, AccuracyTracksBias)
{
    const double bias = GetParam();
    McFarling m;
    Rng rng(31);
    int correct = 0;
    const int n = 12000;
    for (int i = 0; i < n; ++i) {
        const Addr pc = 0x1000 + (i % 7) * 16;
        const bool t = rng.chance(bias);
        correct += (m.predict(pc) == t);
        m.train(pc, t);
    }
    const double acc = static_cast<double>(correct) / n;
    // Accuracy should be at least roughly max(bias, 1-bias) - 7%.
    const double floor = std::max(bias, 1.0 - bias) - 0.22;
    EXPECT_GT(acc, floor);
}

INSTANTIATE_TEST_SUITE_P(Biases, BpBias,
                         testing::Values(0.5, 0.7, 0.9, 0.97));
