/**
 * @file
 * Open-loop overload: the admission policies must make closed-form
 * drop decisions from their own deterministic RNG stream, the
 * open-loop arrival process must track its configured rate and be
 * byte-reproducible from its seed (identical metrics JSON and span
 * files), overloaded runs must stay architecturally exact under the
 * co-simulation oracle across context counts, overload state must
 * round-trip through snapshot/resume taken mid-flight, the accounted
 * mbuf pool must turn exhaustion into a refusal instead of the legacy
 * allocator's silent aliasing, and runs with everything disabled must
 * produce artifacts with no overload footprint at all.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/params.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/session.h"
#include "kernel/admission.h"
#include "kernel/kernel.h"
#include "net/clients.h"
#include "net/network.h"
#include "obs/session.h"
#include "sim/config.h"
#include "sim/export.h"
#include "sim/system.h"
#include "workload/apache.h"

namespace smtos {

/** White-box access to the kernel's mbuf allocators and counters. */
class KernelTestPeer
{
  public:
    static Addr
    allocRx(Kernel &k, std::uint32_t bytes)
    {
        return k.allocRxMbuf(bytes);
    }
    static void
    freeRx(Kernel &k, Addr mbuf, std::uint32_t bytes)
    {
        k.freeRxMbuf(mbuf, bytes);
    }
    static Addr
    allocLegacy(Kernel &k, std::uint32_t bytes)
    {
        return k.allocMbuf(bytes);
    }
    static Addr
    allocTx(Kernel &k, std::uint32_t bytes)
    {
        return k.allocTxMbuf(bytes);
    }
    static std::uint64_t txWraps(const Kernel &k)
    {
        return k.mbufTxWraps_;
    }
};

} // namespace smtos

using namespace smtos;

namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Temp dir for one test's artifacts, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("smtos_overload_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/** The overload operating point most tests run at: open-loop load
 *  just past what a small machine serves, oldest-first shedding with
 *  a deadline below the client retry timeout. */
OpenLoopParams
openLoopPoint()
{
    OpenLoopParams p;
    p.enabled = true;
    p.ratePerMcycle = 200.0;
    p.retryTimeout = 150'000;
    p.maxRetries = 2;
    return p;
}

AdmitParams
oldestFirstPoint()
{
    AdmitParams p;
    p.policy = AdmitPolicy::OldestFirst;
    p.queueCap = 16;
    p.shedDeadline = 100'000;
    p.mbufAccounting = true;
    return p;
}

MachineConfig
overloadMachine(int contexts)
{
    MachineConfig cfg = smtConfig();
    cfg.core.numContexts = contexts;
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    cfg.kernel.openLoop = openLoopPoint();
    cfg.kernel.admit = oldestFirstPoint();
    return cfg;
}

Session::Config
overloadSession()
{
    Session::Config cfg;
    cfg.workload.kind = WorkloadConfig::Kind::Apache;
    cfg.workload.openLoop = openLoopPoint();
    cfg.system.admit = oldestFirstPoint();
    cfg.system.topology.contextsPerCore = 4;
    cfg.phases.startupInstrs = 260'000;
    cfg.phases.measureInstrs = 200'000;
    return cfg;
}

} // namespace

// --- parameter parsing (the SMTOS_OPENLOOP / SMTOS_ADMIT grammar) ---

TEST(OverloadParse, AdmitFromString)
{
    const AdmitParams p = parseParams<AdmitParams>(
        "policy=oldest,cap=32,deadline=120000,seed=7,mbufacct=1").value;
    EXPECT_EQ(p.policy, AdmitPolicy::OldestFirst);
    EXPECT_EQ(p.queueCap, 32);
    EXPECT_EQ(p.shedDeadline, 120000u);
    EXPECT_EQ(p.seed, 7u);
    EXPECT_TRUE(p.mbufAccounting);
    EXPECT_TRUE(p.enabled());

    const AdmitParams red =
        parseParams<AdmitParams>("policy=red,cap=64,redmin=16,redmaxp=0.5")
            .value;
    EXPECT_EQ(red.policy, AdmitPolicy::RandomEarlyDrop);
    EXPECT_EQ(red.redMinDepth, 16);
    EXPECT_DOUBLE_EQ(red.redMaxProb, 0.5);

    EXPECT_FALSE(AdmitParams{}.enabled());
}

TEST(OverloadParse, OpenLoopFromString)
{
    const OpenLoopParams p = parseParams<OpenLoopParams>(
        "rate=4.5,kind=bursty,burstfactor=3,burstduty=0.5,"
        "burstperiod=100000,slowpct=0.25,slowdrain=2000,"
        "keepalive=0.1,retry=90000,maxretries=3,seed=42").value;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.kind, ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(p.ratePerMcycle, 4.5);
    EXPECT_DOUBLE_EQ(p.burstFactor, 3.0);
    EXPECT_DOUBLE_EQ(p.burstDuty, 0.5);
    EXPECT_EQ(p.burstPeriod, 100000u);
    EXPECT_DOUBLE_EQ(p.slowPct, 0.25);
    EXPECT_EQ(p.slowDrainPerKb, 2000u);
    EXPECT_DOUBLE_EQ(p.keepAlivePct, 0.1);
    EXPECT_EQ(p.retryTimeout, 90000u);
    EXPECT_EQ(p.maxRetries, 3);
    EXPECT_EQ(p.seed, 42u);

    EXPECT_FALSE(OpenLoopParams{}.enabled);
}

TEST(OverloadParse, EnvOverridesCarryBoth)
{
    const EnvOverrides ov =
        EnvOverrides::fromLookup([](const char *name) -> const char * {
            if (std::strcmp(name, "SMTOS_OPENLOOP") == 0)
                return "rate=2.0";
            if (std::strcmp(name, "SMTOS_ADMIT") == 0)
                return "policy=droptail,cap=24";
            return nullptr;
        });
    ASSERT_TRUE(ov.openLoop.has_value());
    EXPECT_TRUE(ov.openLoop->enabled);
    EXPECT_DOUBLE_EQ(ov.openLoop->ratePerMcycle, 2.0);
    ASSERT_TRUE(ov.admit.has_value());
    EXPECT_EQ(ov.admit->policy, AdmitPolicy::DropTail);
    EXPECT_EQ(ov.admit->queueCap, 24);
}

// The ambient open-loop override faces Session::validate like the
// config itself: SPECInt has no clients to drive. (The death test runs
// in a child, so the installed ambient does not leak.)
TEST(OverloadEnvDeathTest, OpenLoopOnSpecIntIsRejected)
{
    EXPECT_EXIT(
        {
            EnvOverrides::fromLookup([](const char *name) -> const char * {
                return std::strcmp(name, "SMTOS_OPENLOOP") == 0 ? "rate=4"
                                                                : nullptr;
            }).install();
            Session s(Session::Config{});
        },
        testing::ExitedWithCode(1), "open-loop arrivals need the Apache");
}

// --- admission decisions (closed-form) ---

TEST(Admission, DropTailRefusesExactlyAtCap)
{
    AdmitParams p;
    p.policy = AdmitPolicy::DropTail;
    p.queueCap = 8;
    AdmissionControl ac(p);
    int drops = 0;
    for (int depth = 0; depth < 16; ++depth)
        drops += ac.shouldDrop(depth) ? 1 : 0;
    // Exactly the depths 8..15 are refused.
    EXPECT_EQ(drops, 8);
    EXPECT_FALSE(ac.shouldDrop(7));
    EXPECT_TRUE(ac.shouldDrop(8));
}

TEST(Admission, NonePolicyNeverDropsAndDrawsNoRng)
{
    AdmissionControl ac{AdmitParams{}};
    const std::uint64_t rng0 = ac.rngRawState();
    for (int depth = 0; depth < 1000; ++depth)
        EXPECT_FALSE(ac.shouldDrop(depth));
    EXPECT_EQ(ac.rngRawState(), rng0);
}

TEST(Admission, RedDropFractionMatchesClosedForm)
{
    AdmitParams p;
    p.policy = AdmitPolicy::RandomEarlyDrop;
    p.queueCap = 64;
    p.redMinDepth = 16;
    p.redMaxProb = 0.5;
    AdmissionControl a(p), b(p);

    // Below redMinDepth RED never drops and never draws.
    const std::uint64_t rng0 = a.rngRawState();
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(a.shouldDrop(15));
    EXPECT_EQ(a.rngRawState(), rng0);
    // At the cap it is pure drop-tail.
    EXPECT_TRUE(a.shouldDrop(64));

    // At depth 40 the closed form is 0.5 * (40-16)/(64-16) = 0.25.
    const int n = 40000;
    int dropsA = 0, dropsB = 0;
    for (int i = 0; i < n; ++i) {
        dropsA += a.shouldDrop(40) ? 1 : 0;
        dropsB += b.shouldDrop(40) ? 1 : 0;
    }
    // Same seed, same stream: bit-identical decisions.
    EXPECT_EQ(dropsA, dropsB);
    const double frac = static_cast<double>(dropsA) / n;
    EXPECT_NEAR(frac, 0.25, 0.02);

    // A different seed gives a different (but still ~0.25) schedule.
    AdmitParams q = p;
    q.seed = 0x5eedULL;
    AdmissionControl c(q);
    int dropsC = 0;
    for (int i = 0; i < n; ++i)
        dropsC += c.shouldDrop(40) ? 1 : 0;
    EXPECT_NE(dropsA, dropsC);
    EXPECT_NEAR(static_cast<double>(dropsC) / n, 0.25, 0.02);
}

// --- the open-loop arrival process ---

TEST(OpenLoopClients, PoissonArrivalsTrackConfiguredRate)
{
    ClientPopulation cl{SpecWebParams{}, 7};
    Network net;
    OpenLoopParams p;
    p.enabled = true;
    p.ratePerMcycle = 200.0;
    cl.setOpenLoop(p);

    // 2M cycles at NIC-interrupt granularity: expect ~400 arrivals.
    for (Cycle now = 8000; now <= 2'000'000; now += 8000)
        cl.tick(now, net);
    EXPECT_GT(cl.arrivals(), 300u);
    EXPECT_LT(cl.arrivals(), 500u);
    // Nothing answers, so every port fills and the overflow counter
    // must absorb the arrivals beyond the 128 ports.
    EXPECT_GT(cl.arrivalOverflows(), 0u);
    EXPECT_EQ(cl.requestsIssued() + cl.arrivalOverflows(),
              cl.arrivals());
}

TEST(OpenLoopClients, SameSeedSameSchedule)
{
    OpenLoopParams p;
    p.enabled = true;
    p.ratePerMcycle = 120.0;
    p.kind = ArrivalKind::Bursty;

    auto runOnce = [&p]() {
        ClientPopulation cl{SpecWebParams{}, 7};
        Network net;
        cl.setOpenLoop(p);
        for (Cycle now = 8000; now <= 1'000'000; now += 8000)
            cl.tick(now, net);
        return std::make_pair(cl.arrivals(), cl.requestsIssued());
    };
    EXPECT_EQ(runOnce(), runOnce());

    OpenLoopParams q = p;
    q.seed = 0xfeedULL;
    ClientPopulation cl{SpecWebParams{}, 7};
    Network net;
    cl.setOpenLoop(q);
    for (Cycle now = 8000; now <= 1'000'000; now += 8000)
        cl.tick(now, net);
    EXPECT_NE(cl.arrivals(), runOnce().first);
}

TEST(OpenLoopClients, RampStartsSlower)
{
    SpecWebParams web;
    Network net;
    OpenLoopParams p;
    p.enabled = true;
    p.ratePerMcycle = 200.0;

    ClientPopulation flat{web, 7};
    flat.setOpenLoop(p);
    p.kind = ArrivalKind::Ramp;
    p.rampStartFactor = 0.1;
    p.rampCycles = 4'000'000;
    ClientPopulation ramp{web, 7};
    ramp.setOpenLoop(p);

    for (Cycle now = 8000; now <= 1'000'000; now += 8000) {
        flat.tick(now, net);
        ramp.tick(now, net);
    }
    // Deep in the ramp the offered load is a fraction of the flat
    // process's.
    EXPECT_LT(ramp.arrivals() * 2, flat.arrivals());
}

// --- overloaded runs stay architecturally exact (cosim oracle) ---

class OverloadInvariant : public ::testing::TestWithParam<int>
{
};

TEST_P(OverloadInvariant, ExactUnderCosimAcrossContexts)
{
    const int contexts = GetParam();
    System sys(overloadMachine(contexts));
    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(1'200'000);

    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 50000u);
    // The open-loop process offered load...
    const OverloadStats st = sys.kernel().overloadStats();
    EXPECT_TRUE(st.enabled);
    EXPECT_GT(st.offeredArrivals, 0u);
    // ...and the kernel's structural invariants held throughout,
    // including the accounted-RX-mbuf map.
    EXPECT_EQ(sys.kernel().auditInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Contexts, OverloadInvariant,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto &info) {
                             return "Ctx" +
                                    std::to_string(info.param);
                         });

TEST(OverloadRun, SlowClientsDrainAndComplete)
{
    MachineConfig cfg = overloadMachine(8);
    cfg.kernel.openLoop.ratePerMcycle = 60.0;
    cfg.kernel.openLoop.slowPct = 1.0;
    cfg.kernel.openLoop.slowDrainPerKb = 1000;
    System sys(cfg);
    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(2'400'000);

    const OverloadStats st = sys.kernel().overloadStats();
    EXPECT_GT(st.slowCompletions, 0u);
    EXPECT_GT(st.goodput, 0u);
    // Every slow completion is also a goodput completion.
    EXPECT_LE(st.slowCompletions, st.goodput);
}

// --- determinism of the full pipeline (metrics JSON + span files) ---

TEST(OverloadDeterminism, SameSeedByteIdenticalArtifacts)
{
    TempDir tmp("det");
    auto runOnce = [&tmp](const std::string &tag) {
        ObsConfig oc;
        oc.reqtrace = true;
        oc.reqtraceFilePath = (tmp.path / (tag + ".jsonl")).string();
        ObsSession obs(oc);
        Session::Config cfg = overloadSession();
        cfg.obs = &obs;
        Session s(cfg);
        const RunResult r = s.run();
        return toJson(r.steady);
    };
    const std::string a = runOnce("a");
    const std::string b = runOnce("b");
    EXPECT_EQ(a, b);
    EXPECT_EQ(readFile(tmp.path / "a.jsonl"),
              readFile(tmp.path / "b.jsonl"));
    // The gated overload object is present and accounted.
    EXPECT_NE(a.find("\"overload\":{\"offered_arrivals\":"),
              std::string::npos);
}

// --- snapshot/resume with overload state mid-flight ---

TEST(OverloadSnap, ResumedRunIsByteIdentical)
{
    Session::Config cfg = overloadSession();
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();
    // Snapshotting is repeatable.
    EXPECT_EQ(artifact, origin.snapshot());

    const std::string straight = toJson(origin.runMeasurement().steady);

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_TRUE(resumed->config().workload.openLoop.enabled);
    EXPECT_EQ(resumed->config().system.admit.policy,
              AdmitPolicy::OldestFirst);
    const std::string replay = toJson(resumed->runMeasurement().steady);
    EXPECT_EQ(straight, replay);
    EXPECT_NE(straight.find("\"overload\""), std::string::npos);
}

TEST(OverloadSnap, ResumeThenSnapshotIsIdentity)
{
    Session::Config cfg = overloadSession();
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();
    std::string err;
    auto resumed =
        Session::resume(artifact, Session::ResumeOptions{}, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(artifact, resumed->snapshot());
}

TEST(OverloadSnap, ClosedLoopArtifactResumesIntoOverload)
{
    // The fig_overload_knee pattern: one closed-loop start-up
    // artifact, pushed into open-loop load under an admission policy
    // purely via ResumeOptions.
    Session::Config cfg;
    cfg.workload.kind = WorkloadConfig::Kind::Apache;
    cfg.system.topology.contextsPerCore = 4;
    cfg.phases.startupInstrs = 260'000;
    cfg.phases.measureInstrs = 200'000;
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    opts.openLoop = openLoopPoint();
    opts.admit = oldestFirstPoint();
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    const std::string json = toJson(resumed->runMeasurement().steady);
    EXPECT_NE(json.find("\"overload\""), std::string::npos);
    const OverloadStats st =
        resumed->system().kernel().overloadStats();
    EXPECT_TRUE(st.enabled);
    EXPECT_GT(st.offeredArrivals, 0u);
    // And its own snapshot carries the overridden config.
    auto again = Session::resume(resumed->snapshot(),
                                 Session::ResumeOptions{}, &err);
    ASSERT_NE(again, nullptr) << err;
    EXPECT_TRUE(again->config().workload.openLoop.enabled);
    EXPECT_EQ(again->config().system.admit.policy,
              AdmitPolicy::OldestFirst);
}

// --- the mbuf pool: accounted refusal vs legacy aliasing ---

TEST(MbufPool, AccountedRxPoolRefusesWhenExhausted)
{
    System sys(overloadMachine(2));
    Kernel &k = sys.kernel();

    // The RX region holds exactly 96 2KB units.
    std::set<Addr> got;
    std::vector<Addr> order;
    for (int i = 0; i < 96; ++i) {
        const Addr m = KernelTestPeer::allocRx(k, 2048);
        ASSERT_NE(m, 0u) << "unit " << i;
        got.insert(m);
        order.push_back(m);
    }
    // All distinct: exhaustion cannot silently alias.
    EXPECT_EQ(got.size(), 96u);
    // The 97th allocation is refused, not wrapped.
    EXPECT_EQ(KernelTestPeer::allocRx(k, 2048), 0u);
    // Freeing returns the unit to the pool.
    KernelTestPeer::freeRx(k, order[40], 2048);
    EXPECT_EQ(KernelTestPeer::allocRx(k, 2048), order[40]);
    EXPECT_EQ(KernelTestPeer::allocRx(k, 2048), 0u);
}

TEST(MbufPool, LegacyBumpAllocatorAliasesOnWrap)
{
    // The pre-accounting allocator wraps its cursor and reuses live
    // buffers without any signal — the hazard the accounted pool
    // (admit.mbufAccounting) turns into counted backpressure. Pin
    // the behavior so the contrast stays documented.
    MachineConfig cfg = smtConfig();
    cfg.kernel.enableNetwork = true;
    System sys(cfg);
    Kernel &k = sys.kernel();

    const Addr first = KernelTestPeer::allocLegacy(k, 2048);
    bool aliased = false;
    for (int i = 0; i < 256 && !aliased; ++i)
        aliased = KernelTestPeer::allocLegacy(k, 2048) == first;
    EXPECT_TRUE(aliased);
}

TEST(MbufPool, TxWrapsAreCounted)
{
    System sys(overloadMachine(2));
    Kernel &k = sys.kernel();
    EXPECT_EQ(KernelTestPeer::txWraps(k), 0u);
    // The TX region is 32 2KB units; the 33rd bump wraps and counts.
    for (int i = 0; i < 33; ++i)
        KernelTestPeer::allocTx(k, 2048);
    EXPECT_EQ(KernelTestPeer::txWraps(k), 1u);
}

// --- disabled parity: no overload footprint anywhere ---

TEST(OverloadDisabled, ClosedLoopRunHasNoOverloadFootprint)
{
    Session::Config cfg;
    cfg.workload.kind = WorkloadConfig::Kind::Apache;
    cfg.system.topology.contextsPerCore = 2;
    cfg.phases.startupInstrs = 200'000;
    cfg.phases.measureInstrs = 120'000;
    Session s(cfg);
    const RunResult r = s.run();
    const std::string json = toJson(r.steady);
    EXPECT_EQ(json.find("\"overload\""), std::string::npos);
    EXPECT_FALSE(s.capture().overload.enabled);
    const ClientPopulation &cl = s.system().kernel().clients();
    EXPECT_EQ(cl.arrivals(), 0u);
    EXPECT_FALSE(cl.openLoopEnabled());
}
