/**
 * @file
 * Snapshot/restore engine: a restored session is the session. For
 * every workload x context count x host-fast-path x fault-plan cell,
 * resuming the post-startup artifact and measuring must produce the
 * byte-identical metrics export, timeline, and fault log that the
 * straight-through run produces — and corrupted or version-skewed
 * artifacts must be rejected before any state is touched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cosim.h"
#include "harness/session.h"
#include "harness/sweep.h"
#include "obs/session.h"
#include "sim/export.h"
#include "sim/system.h"
#include "snap/snapshot.h"

using namespace smtos;

namespace {

struct Scenario
{
    WorkloadConfig::Kind kind;
    int contexts;
    bool fastForward;
    bool faults;
    bool banked = false; ///< banked DRAM behind the L2
};

std::string
scenarioName(const ::testing::TestParamInfo<Scenario> &info)
{
    const Scenario &s = info.param;
    std::string n =
        s.kind == WorkloadConfig::Kind::Apache ? "Apache" : "SpecInt";
    n += "Ctx" + std::to_string(s.contexts);
    n += s.fastForward ? "Fast" : "Slow";
    n += s.faults ? "Faults" : "Clean";
    n += s.banked ? "Banked" : "Flat";
    return n;
}

Session::Config
configFor(const Scenario &sc)
{
    Session::Config cfg;
    cfg.workload.kind = sc.kind;
    cfg.workload.spec.inputChunks = 8;
    cfg.system.topology.contextsPerCore = sc.contexts;
    cfg.system.fastForward = sc.fastForward;
    cfg.system.dram.banked = sc.banked;
    if (sc.kind == WorkloadConfig::Kind::Apache) {
        cfg.phases.startupInstrs = 260'000;
        cfg.phases.measureInstrs = 120'000;
    } else {
        cfg.phases.startupInstrs = 120'000;
        cfg.phases.measureInstrs = 120'000;
    }
    if (sc.faults) {
        cfg.faults.lossPct = 0.02;
        cfg.faults.mcePeriod = 60'000;
    }
    return cfg;
}

struct Observed
{
    std::string json;     ///< toJson of the measurement delta
    std::string faultLog; ///< plan log, empty when no plan
    std::uint64_t cycles = 0;
    std::uint64_t requestsServed = 0;
};

Observed
observe(Session &s, const RunResult &r)
{
    Observed o;
    o.json = toJson(r.steady);
    if (s.faultPlan())
        o.faultLog = s.faultPlan()->logText();
    o.cycles = r.cycles;
    o.requestsServed = r.requestsServed;
    return o;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

class SnapRoundTrip : public ::testing::TestWithParam<Scenario>
{
};

// The matrix: startup once, snapshot; the resumed measurement must be
// byte-identical to continuing the origin session.
TEST_P(SnapRoundTrip, ResumedRunIsByteIdentical)
{
    const Session::Config cfg = configFor(GetParam());

    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();
    // Snapshotting is a pure observation: equal state, equal bytes.
    EXPECT_EQ(artifact, origin.snapshot());

    const Observed straight =
        observe(origin, origin.runMeasurement());

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    // Restore rebuilds the scheduler state derived from the windows
    // rather than reading it; every core audits clean at once.
    for (int c = 0; c < resumed->system().numCores(); ++c)
        EXPECT_EQ(resumed->system().pipeline(c).auditInvariants(), "")
            << "core " << c;
    const Observed replay =
        observe(*resumed, resumed->runMeasurement());

    EXPECT_EQ(straight.json, replay.json);
    EXPECT_EQ(straight.cycles, replay.cycles);
    EXPECT_EQ(straight.requestsServed, replay.requestsServed);
    EXPECT_EQ(straight.faultLog, replay.faultLog);
    if (GetParam().faults)
        EXPECT_FALSE(straight.faultLog.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SnapRoundTrip,
    ::testing::ValuesIn([] {
        std::vector<Scenario> v;
        for (WorkloadConfig::Kind kind :
             {WorkloadConfig::Kind::SpecInt,
              WorkloadConfig::Kind::Apache})
            for (int contexts : {1, 2, 4, 8})
                for (bool fast : {true, false})
                    for (bool faults : {false, true})
                        for (bool banked : {false, true})
                            v.push_back({kind, contexts, fast,
                                         faults, banked});
        return v;
    }()),
    scenarioName);

// The timeline sink sees the same measurement-phase event stream
// (absolute cycle timestamps included) either way.
TEST(SnapTimeline, ResumedTimelineIsByteIdentical)
{
    Session::Config cfg =
        configFor({WorkloadConfig::Kind::Apache, 4, true, false});

    const std::string straightPath = "snap_tl_straight.json";
    const std::string replayPath = "snap_tl_replay.json";

    std::vector<std::uint8_t> artifact;
    {
        ObsConfig oc;
        oc.timelinePath = straightPath;
        // Declared before origin: ~Session calls finish() on it.
        ObsSession obs(oc);
        Session origin(cfg);
        origin.runStartup();
        artifact = origin.snapshot();
        origin.attachObs(obs);
        origin.runMeasurement();
    }
    {
        ObsConfig oc;
        oc.timelinePath = replayPath;
        ObsSession obs(oc);
        Session::ResumeOptions opts;
        opts.phases = cfg.phases;
        opts.obs = &obs;
        std::string err;
        auto resumed = Session::resume(artifact, opts, &err);
        ASSERT_NE(resumed, nullptr) << err;
        resumed->runMeasurement();
    }
    const std::string a = slurp(straightPath);
    const std::string b = slurp(replayPath);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    std::remove(straightPath.c_str());
    std::remove(replayPath.c_str());
}

// A snapshot taken from a cosim session restores into a cosim session
// (committed registers travel with the artifact) and the oracle stays
// clean across the boundary. runMeasurement panics on divergence, so
// surviving the call is the assertion; checked() proves it engaged.
TEST(SnapCosim, OracleStaysCleanAcrossRestore)
{
    Session::Config cfg =
        configFor({WorkloadConfig::Kind::SpecInt, 4, true, false});
    cfg.cosim = true;

    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    opts.cosim = true;
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    resumed->runMeasurement();
    ASSERT_NE(resumed->cosim(), nullptr);
    EXPECT_FALSE(resumed->cosim()->diverged());
    EXPECT_GT(resumed->cosim()->checked(), 0u);
}

// Resuming with no overrides and snapshotting again reproduces the
// artifact byte for byte: restore loses nothing.
TEST(SnapArtifact, ResumeThenSnapshotIsIdentity)
{
    const Session::Config cfg =
        configFor({WorkloadConfig::Kind::Apache, 2, true, true});
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    std::string err;
    auto resumed =
        Session::resume(artifact, Session::ResumeOptions{}, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(artifact, resumed->snapshot());
}

TEST(SnapArtifact, RejectsCorruptTruncatedAndVersionSkew)
{
    const Session::Config cfg =
        configFor({WorkloadConfig::Kind::SpecInt, 2, true, false});
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    auto rejects = [](std::vector<std::uint8_t> bad) {
        std::string err;
        auto s = Session::resume(bad, Session::ResumeOptions{}, &err);
        EXPECT_EQ(s, nullptr);
        EXPECT_FALSE(err.empty());
    };

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = artifact;
        bad[0] ^= 0xff;
        rejects(bad);
    }
    // Unsupported format version (header u32 after the 8-byte magic).
    {
        std::vector<std::uint8_t> bad = artifact;
        bad[8] += 1;
        rejects(bad);
    }
    // Payload corruption: the checksum gate must catch a single
    // flipped bit anywhere in the payload.
    {
        std::vector<std::uint8_t> bad = artifact;
        bad[bad.size() / 2] ^= 0x20;
        rejects(bad);
    }
    // Truncation, both mid-header and mid-payload.
    {
        rejects(std::vector<std::uint8_t>(artifact.begin(),
                                          artifact.begin() + 9));
        rejects(std::vector<std::uint8_t>(
            artifact.begin(), artifact.begin() + artifact.size() / 2));
    }
    // Empty.
    rejects({});
}

// The sweep engine is restore fan-out: every point must reproduce the
// straight-through run of the same configuration. jobs=2 exercises
// the concurrent-restore path even on one-core hosts (TSan coverage).
TEST(SnapSweep, SweepPointsMatchStraightThroughRuns)
{
    SweepGroup g;
    g.base = configFor({WorkloadConfig::Kind::Apache, 4, true, false});
    SweepPoint icount;
    icount.label = "icount";
    icount.opts.phases = g.base.phases;
    SweepPoint rr;
    rr.label = "rr";
    rr.opts.phases = g.base.phases;
    rr.opts.roundRobinFetch = true;
    g.points = {icount, rr};

    const std::vector<RunResult> swept = runSweep(g, 2);
    ASSERT_EQ(swept.size(), 2u);

    // The unmodified point must equal a straight-through run of the
    // base configuration end to end.
    const RunResult straightIcount = Session(g.base).run();
    EXPECT_EQ(toJson(swept[0].steady), toJson(straightIcount.steady));

    // A policy-overridden point cannot be reproduced by any from-boot
    // run (its startup deliberately ran under the base policy); its
    // comparator is a manual resume from an identical snapshot.
    // Snapshot determinism (see Matrix/SnapRoundTrip) makes this
    // artifact byte-equal to the one runSweep produced internally.
    Session origin(g.base);
    origin.runStartup();
    std::string err;
    auto rrManual = Session::resume(origin.snapshot(), rr.opts, &err);
    ASSERT_NE(rrManual, nullptr) << err;
    const RunResult manualRr = rrManual->runMeasurement();
    EXPECT_EQ(toJson(swept[1].steady), toJson(manualRr.steady));
    // The fetch policy must actually differ for the comparison to
    // mean anything.
    EXPECT_NE(toJson(swept[0].steady), toJson(swept[1].steady));
}
