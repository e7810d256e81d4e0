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

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/cosim.h"
#include "harness/session.h"
#include "harness/sweep.h"
#include "obs/session.h"
#include "sim/export.h"
#include "sim/system.h"
#include "snap/snapshot.h"
#include "snap/sysstate.h"

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

/** The host fast path is a per-pipeline switch, not a config field:
 *  set it on every core of @p s. */
void
setFastForward(Session &s, bool on)
{
    for (Pipeline *p : s.system().pipes())
        p->setFastForward(on);
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

/** @p s's image registry (collectImages: the kernel image, then the
 *  user images in pid order). */
std::vector<const CodeImage *>
imagesOf(Session &s)
{
    const SnapImages reg = collectImages(s.system());
    std::vector<const CodeImage *> v;
    for (int i = 0; i < reg.count(); ++i)
        v.push_back(reg.byId(i));
    return v;
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
    setFastForward(origin, GetParam().fastForward);
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
    setFastForward(*resumed, GetParam().fastForward);
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
    if (GetParam().faults) {
        EXPECT_FALSE(straight.faultLog.empty());
    }
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

// The occupancy counters and the branch hold are not in the artifact:
// restore recounts them from the windows. A context holds fetch for an
// unresolved target mispredict on only a few cycles, so resume the
// artifacts of 300 consecutive cycles; several of them catch a hold,
// and each must audit clean at once.
TEST(SnapArtifact, ResumeRecountsTheWindowStateOnEveryCycle)
{
    Session origin(
        configFor({WorkloadConfig::Kind::SpecInt, 8, true, false}));
    origin.runStartup();
    for (int k = 0; k < 300; ++k) {
        auto resumed =
            Session::resume(origin.snapshot(), Session::ResumeOptions{});
        ASSERT_NE(resumed, nullptr);
        ASSERT_EQ(resumed->system().pipeline().auditInvariants(), "")
            << "artifact of cycle " << k;
        origin.system().runCycles(1);
    }
}

// An artifact is a function of simulated state alone: a run that
// skips quiescent cycles and one that ticks them write the same bytes.
// The superscalar SPECInt run is where the skip fires; SMT 1x8 takes
// the same check on the paper's machine.
TEST(SnapArtifact, HostPathsWriteEqualBytes)
{
    for (const bool smt : {false, true}) {
        Session::Config cfg = configFor(
            {WorkloadConfig::Kind::SpecInt, smt ? 8 : 1, true, false});
        cfg.system.smt = smt;
        std::uint64_t skipped[2] = {0, 0};
        auto artifactOf = [&cfg, &skipped](bool fast) {
            Session s(cfg);
            setFastForward(s, fast);
            s.run();
            skipped[fast] = s.system().pipeline().fastForwardedCycles();
            return s.snapshot();
        };
        const char *machine = smt ? "SMT 1x8" : "superscalar";
        // EXPECT_TRUE: a failure would otherwise print both artifacts.
        EXPECT_TRUE(artifactOf(true) == artifactOf(false)) << machine;
        EXPECT_EQ(skipped[false], 0u) << machine;
        if (!smt) {
            EXPECT_GT(skipped[true], 0u) << machine;
        }
    }
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
    // The retired formats have no reader and are refused by name:
    // version 1 (dense cache ways, byte-wise checksum), version 2
    // (host fast-path state, per-cycle scratch and padding included)
    // and version 3 (occupancy counters and the branch hold saved
    // beside the windows that determine them).
    for (const std::uint32_t retired : {1u, 2u, 3u}) {
        std::vector<std::uint8_t> bad = artifact;
        std::memcpy(bad.data() + 8, &retired, sizeof retired);
        std::string err;
        EXPECT_EQ(Session::resume(bad, Session::ResumeOptions{}, &err),
                  nullptr);
        EXPECT_NE(err.find("format version " + std::to_string(retired) +
                           " "),
                  std::string::npos)
            << err;
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

// Flipping any one bit of a payload of any length changes the checksum:
// the 8-byte word loop and the 0-7 byte tail both see every bit.
TEST(SnapChecksum, EveryBitFlipChangesTheHash)
{
    std::vector<std::uint8_t> buf(40);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
    for (std::size_t n = 0; n <= buf.size(); ++n) {
        const std::uint64_t h = snapshotChecksum(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                buf[i] ^= static_cast<std::uint8_t>(1u << bit);
                EXPECT_NE(snapshotChecksum(buf.data(), n), h)
                    << "length " << n << " byte " << i << " bit " << bit;
                buf[i] ^= static_cast<std::uint8_t>(1u << bit);
            }
        }
    }
}

// The same bytes hash equal at any offset: the words of a payload
// (28 bytes into its artifact) are not 8-byte aligned, and a word load
// through a cast would be one UBSan reports.
TEST(SnapChecksum, UnalignedBytesHashEqual)
{
    std::vector<std::uint8_t> bytes(37);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 91 + 5);
    const std::uint64_t h = snapshotChecksum(bytes.data(), bytes.size());
    std::vector<std::uint8_t> buf(bytes.size() + 8);
    for (std::size_t off = 1; off < 8; ++off) {
        std::copy(bytes.begin(), bytes.end(), buf.begin() + off);
        EXPECT_EQ(snapshotChecksum(buf.data() + off, bytes.size()), h)
            << "offset " << off;
    }
}

// A length read from an artifact is checked against the bytes left in
// its section before it sizes a container: a crafted length with a
// valid checksum trips the framing assertion instead of allocating.
TEST(SnapArchiveDeathTest, LengthPastTheSectionAsserts)
{
    Snapshotter s;
    s.beginSection("TEST", 1);
    s.io(std::uint64_t{1} << 40); // element count
    s.io(std::uint64_t{7});       // one element's bytes
    s.endSection();
    const std::vector<std::uint8_t> bytes = s.finish();
    const auto loaded = [&bytes](auto load) {
        Restorer r(bytes);
        ASSERT_TRUE(r.ok()) << r.error();
        r.beginSection("TEST", 1);
        load(r);
    };
    EXPECT_EXIT(loaded([](Restorer &r) {
                    std::vector<std::uint64_t> v;
                    r.vec(v);
                }),
                ::testing::KilledBySignal(SIGABRT), "assertion failed");
    EXPECT_EXIT(loaded([](Restorer &r) {
                    std::unordered_map<std::uint64_t, std::uint64_t> m;
                    r.map(m);
                }),
                ::testing::KilledBySignal(SIGABRT), "assertion failed");
    EXPECT_EXIT(loaded([](Restorer &r) {
                    std::vector<std::uint64_t> v;
                    r.seq(v, [&r](std::uint64_t &e) { r.io(e); });
                }),
                ::testing::KilledBySignal(SIGABRT), "assertion failed");
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

// Code images are built once per key and shared while a holder lives
// (isa/imagetable.h): two live sessions at one seed, and a session
// resumed from a live session's artifact, read the same kernel and
// user images; a session at another seed reads none of them.
TEST(SnapSharedImages, SessionsOfOneSeedShareTheirImages)
{
    for (WorkloadConfig::Kind kind :
         {WorkloadConfig::Kind::SpecInt, WorkloadConfig::Kind::Apache}) {
        const Session::Config cfg = configFor({kind, 2, true, false});
        Session a(cfg);
        Session b(cfg);
        EXPECT_EQ(&a.system().kernelCode(), &b.system().kernelCode());
        const std::vector<const CodeImage *> images = imagesOf(a);
        EXPECT_EQ(images.size(),
                  kind == WorkloadConfig::Kind::SpecInt ? 9u : 2u);
        EXPECT_EQ(imagesOf(b), images);

        Session::Config seven = cfg;
        seven.workload.seed = 7;
        Session c(seven);
        EXPECT_NE(&c.system().kernelCode(), &a.system().kernelCode());
        const std::vector<const CodeImage *> other = imagesOf(c);
        ASSERT_EQ(other.size(), images.size());
        for (std::size_t i = 0; i < images.size(); ++i)
            EXPECT_NE(other[i], images[i]) << "image " << i;

        std::string err;
        auto resumed =
            Session::resume(a.snapshot(), Session::ResumeOptions{}, &err);
        ASSERT_NE(resumed, nullptr) << err;
        EXPECT_EQ(imagesOf(*resumed), images);
    }
}

// A resumed session keeps its images alive by itself: once its origin
// and every other holder are gone, its measurement still equals the
// straight-through run's (under ASan, an image freed early is a
// use-after-free here).
TEST(SnapSharedImages, ResumedSessionOutlivesEveryOtherHolder)
{
    for (WorkloadConfig::Kind kind :
         {WorkloadConfig::Kind::SpecInt, WorkloadConfig::Kind::Apache}) {
        const Session::Config cfg = configFor({kind, 2, true, false});
        const std::string straight = toJson(Session(cfg).run().steady);

        auto origin = std::make_unique<Session>(cfg);
        origin->runStartup();
        const std::vector<std::uint8_t> artifact = origin->snapshot();
        auto other = std::make_unique<Session>(cfg);
        Session::ResumeOptions opts;
        opts.phases = cfg.phases;
        std::string err;
        auto resumed = Session::resume(artifact, opts, &err);
        ASSERT_NE(resumed, nullptr) << err;
        EXPECT_EQ(imagesOf(*resumed), imagesOf(*origin));
        origin.reset();
        other.reset();

        EXPECT_EQ(toJson(resumed->runMeasurement().steady), straight);
    }
}

// The workload key is the whole params struct: a session whose
// SpecIntParams or ApacheParams differ from another's in any one field
// gets its own user images (and still shares the kernel image, which
// depends on the seed alone).
TEST(SnapSharedImages, EveryParamsFieldKeysTheWorkload)
{
    const auto differ = [](const Session::Config &base,
                           const Session::Config &variant,
                           const char *field) {
        Session a(base);
        Session b(variant);
        EXPECT_EQ(&a.system().kernelCode(), &b.system().kernelCode())
            << field;
        const std::vector<const CodeImage *> x = imagesOf(a);
        const std::vector<const CodeImage *> y = imagesOf(b);
        for (std::size_t i = 1; i < std::min(x.size(), y.size()); ++i)
            EXPECT_NE(x[i], y[i]) << field << ", image " << i;
    };

    const Session::Config spec =
        configFor({WorkloadConfig::Kind::SpecInt, 2, true, false});
    Session::Config v = spec;
    v.workload.spec.numApps -= 1;
    differ(spec, v, "numApps");
    v = spec;
    v.workload.spec.inputChunks += 1;
    differ(spec, v, "inputChunks");
    v = spec;
    v.workload.spec.heapBase *= 2;
    differ(spec, v, "heapBase");
    v = spec;
    v.workload.spec.heapStep *= 2;
    differ(spec, v, "heapStep");
    v = spec;
    v.workload.spec.seed += 1;
    differ(spec, v, "spec.seed");

    const Session::Config apache =
        configFor({WorkloadConfig::Kind::Apache, 2, true, false});
    v = apache;
    v.workload.apache.numServers /= 2;
    differ(apache, v, "numServers");
    v = apache;
    v.workload.apache.heapBytes *= 2;
    differ(apache, v, "heapBytes");
    v = apache;
    v.workload.apache.seed += 1;
    differ(apache, v, "apache.seed");
}
