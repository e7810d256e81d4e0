/**
 * @file
 * Host fast-path correctness suite (ctest -L perf).
 *
 * The fast path (DESIGN.md §10) must be invisible in simulated
 * results: quiescence fast-forward and the host translation caches
 * are toggled on and off here, a profiler is attached, and every
 * artifact — metrics JSON, Perfetto timeline, fault log — must come
 * out byte-identical, across both workloads, 1/2/4/8 contexts and
 * 1/2/4 cores. The parallel experiment runner must reproduce the
 * sequential runner's results exactly, and the co-simulation oracle
 * must hold with the fast path enabled.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/ring.h"
#include "harness/cosim.h"
#include "harness/parallel.h"
#include "obs/session.h"
#include "sim/config.h"
#include "sim/export.h"
#include "sim/system.h"
#include "vm/addrspace.h"
#include "workload/apache.h"
#include "workload/specint.h"

using namespace smtos;

namespace {

Session::Config
perfSpec(WorkloadConfig::Kind wl, int contexts)
{
    Session::Config s;
    s.workload.kind = wl;
    s.system.topology.contextsPerCore = contexts;
    s.workload.spec.inputChunks = 8;
    s.phases.startupInstrs = 30'000;
    s.phases.measureInstrs = 120'000;
    return s;
}

/** Run one spec and return its steady-state metrics as JSON. */
std::string
metricsJson(const Session::Config &spec, bool fast_forward, bool host_cache)
{
    AddrSpace::setHostCacheEnabled(host_cache);
    Session::Config s = spec;
    s.system.fastForward = fast_forward;
    const RunResult r = Session(s).run();
    AddrSpace::setHostCacheEnabled(true);
    return toJson(r.steady);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

// --- FixedRing: the pipeline's flat queue primitive ---

TEST(FixedRing, PushPopFrontBack)
{
    FixedRing<int> r;
    r.init(6); // rounds up to 8
    EXPECT_TRUE(r.empty());

    for (int i = 0; i < 5; ++i)
        r.push_back(i);
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.back(), 4);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(i));

    r.pop_front();
    EXPECT_EQ(r.front(), 1);
    r.pop_back();
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r.size(), 3u);
}

TEST(FixedRing, PositionsSurviveWraparound)
{
    FixedRing<int> r;
    r.init(4);
    // Cycle through many push/pop rounds so head/tail wrap the
    // backing buffer repeatedly; positions stay monotone.
    for (int round = 0; round < 10; ++round) {
        const std::uint64_t p0 = r.tailPos();
        r.push_back(round);
        r.push_back(round + 1);
        EXPECT_TRUE(r.livePos(p0));
        EXPECT_EQ(r.atPos(p0), round);
        EXPECT_FALSE(r.livePos(r.tailPos()));
        r.pop_front();
        r.pop_front();
        EXPECT_FALSE(r.livePos(p0)); // behind head now
    }
}

TEST(FixedRing, PopBackReleasesPosition)
{
    FixedRing<int> r;
    r.init(4);
    r.push_back(1);
    const std::uint64_t pos = r.tailPos();
    r.push_back(2);
    EXPECT_TRUE(r.livePos(pos));
    r.pop_back(); // squash: tail rewinds, position no longer live
    EXPECT_FALSE(r.livePos(pos));
    // The slot can be reused by a later push at the same position.
    r.push_back(3);
    EXPECT_TRUE(r.livePos(pos));
    EXPECT_EQ(r.atPos(pos), 3);
}

// --- bit-identity: every host path simulates the same machine ---

class PerfIdentity
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

/** "Apache_4x2": workload, cores x contexts per core. */
std::string
identityName(const ::testing::TestParamInfo<PerfIdentity::ParamType> &i)
{
    const auto [cores, contexts, apache] = i.param;
    return std::string(apache ? "Apache" : "SpecInt") + "_" +
           std::to_string(cores) + "x" + std::to_string(contexts);
}

// Three legs per configuration: the fast path on, the fast path off,
// and the fast path on with a profiler attached. The profiled issue
// stage evaluates every examined uop (for exact stall attribution)
// where the plain one skips uops on their cached not-before cycle;
// both must make the same decisions.
TEST_P(PerfIdentity, MetricsIdenticalAcrossHostPaths)
{
    const auto [cores, contexts, apache] = GetParam();
    Session::Config spec = perfSpec(apache ? WorkloadConfig::Kind::Apache
                                           : WorkloadConfig::Kind::SpecInt,
                                    contexts);
    spec.system.topology.cores = cores;
    const std::string fast = metricsJson(spec, true, true);
    EXPECT_EQ(fast, metricsJson(spec, false, false))
        << "fast path changed the metrics";

    ObsConfig oc;
    oc.profile = true;
    oc.reportPath = ::testing::TempDir() + "/perf_identity_report.txt";
    ObsSession obs(oc);
    spec.obs = &obs;
    EXPECT_EQ(fast, metricsJson(spec, true, true))
        << "the profiler changed the metrics";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PerfIdentity,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 4, 8), ::testing::Bool()),
    identityName);

TEST(PerfIdentityArtifacts, TimelineAndFaultLogIdentical)
{
    // One faulted Apache run per setting; the Perfetto trace and the
    // fault log must match byte for byte.
    const std::string dir = ::testing::TempDir();
    auto run = [&](bool fast, const std::string &trace_path) {
        AddrSpace::setHostCacheEnabled(fast);
        ObsConfig oc;
        oc.timelinePath = trace_path;
        ObsSession obs(oc);
        FaultPlan plan(
            parseParams<FaultParams>("loss=0.01,mce=40000").value);
        Session::Config s = perfSpec(WorkloadConfig::Kind::Apache, 4);
        s.system.fastForward = fast;
        s.obs = &obs;
        s.faultPlan = &plan;
        Session(s).run();
        AddrSpace::setHostCacheEnabled(true);
        return plan.logText();
    };
    const std::string log_fast = run(true, dir + "/perf_fast.json");
    const std::string log_slow = run(false, dir + "/perf_slow.json");

    EXPECT_FALSE(log_fast.empty());
    EXPECT_EQ(log_fast, log_slow);
    const std::string trace_fast = slurp(dir + "/perf_fast.json");
    EXPECT_FALSE(trace_fast.empty());
    EXPECT_EQ(trace_fast, slurp(dir + "/perf_slow.json"));
}

// --- the oracle holds while cycles are being skipped ---

TEST(PerfCosim, OracleHoldsWithFastForward)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    System sys(cfg);
    ASSERT_TRUE(sys.pipeline().fastForward()); // default on

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(1'200'000);

    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 0u);
}

// The skip path must actually fire somewhere: SPECInt reaches
// machine-wide quiescence (all contexts fetch-stalled with empty
// queues), unlike the fully loaded Apache configuration where the
// simulated idle loop keeps every context issuing.
TEST(PerfFastForward, SkipsCyclesOnQuiescentMachine)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 99;
    System sys(cfg);
    SpecIntParams p;
    p.inputChunks = 8;
    SpecIntWorkload w = buildSpecInt(p);
    installSpecInt(sys.kernel(), w);
    sys.start();
    sys.run(200'000);
    EXPECT_GT(sys.pipeline().fastForwardedCycles(), 0u);
}

// --- the parallel runner reproduces sequential results exactly ---

TEST(PerfParallel, RunnerMatchesSequential)
{
    std::vector<Session::Config> specs;
    specs.push_back(perfSpec(WorkloadConfig::Kind::SpecInt, 4));
    specs.push_back(perfSpec(WorkloadConfig::Kind::Apache, 4));
    specs.push_back(perfSpec(WorkloadConfig::Kind::Apache, 2));
    specs[2].workload.seed = 1234;
    // One seed at more context counts: these runs share one kernel
    // and one workload key, whose images several threads then request
    // at once (isa/imagetable.h).
    specs.push_back(perfSpec(WorkloadConfig::Kind::Apache, 1));
    specs.push_back(perfSpec(WorkloadConfig::Kind::Apache, 8));

    std::vector<std::string> seq;
    for (const Session::Config &s : specs)
        seq.push_back(toJson(Session(s).run().steady));

    // Force real threads even on a single-core host, one per run.
    const std::vector<RunResult> par =
        runSessions(specs, static_cast<unsigned>(specs.size()));
    ASSERT_EQ(par.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(toJson(par[i].steady), seq[i]) << "spec " << i;
}
