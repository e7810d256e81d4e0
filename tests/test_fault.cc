/**
 * @file
 * Fault-injection subsystem: deterministic schedules (same seed =>
 * byte-identical fault log and metrics), the no-fault bit-identity
 * guarantee, graceful degradation of the Apache workload under packet
 * loss and machine checks (verified against the co-simulation
 * oracle), backpressure accounting, the invariant auditor, and the
 * crash-diagnostics bundle.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/params.h"
#include "fault/auditor.h"
#include "fault/diag.h"
#include "fault/fault.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/session.h"
#include "net/network.h"
#include "sim/config.h"
#include "sim/export.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workload/apache.h"

namespace smtos {

/** White-box access used to plant a corruption the auditor must see. */
class KernelTestPeer
{
  public:
    static void
    corruptAcceptQueue(Kernel &k)
    {
        k.acceptQ_.push_back(9999);
    }
};

} // namespace smtos

using namespace smtos;

namespace {

MachineConfig
apacheConfig(std::uint64_t seed = 11)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = seed;
    cfg.kernel.enableNetwork = true;
    return cfg;
}

struct ApacheRun
{
    std::string json;
    std::string faultLog;
    std::uint64_t requestsServed = 0;
    FaultCounters counters;
};

/** One Apache run, optionally under @p fp; exports metrics + log. */
ApacheRun
runApache(const FaultParams *fp, Cycle cycles,
          bool attach_zero_plan = false)
{
    MachineConfig cfg = apacheConfig();
    System sys(cfg);
    std::unique_ptr<FaultPlan> plan;
    if (fp)
        plan = std::make_unique<FaultPlan>(*fp);
    else if (attach_zero_plan)
        plan = std::make_unique<FaultPlan>(FaultParams{});
    if (plan)
        sys.attachFaults(plan.get());
    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(cycles);

    ApacheRun r;
    r.json = toJson(MetricsSnapshot::capture(sys));
    if (plan)
        r.faultLog = plan->logText();
    r.requestsServed = sys.kernel().requestsServed();
    r.counters = sys.kernel().faultCounters();
    return r;
}

} // namespace

TEST(FaultParams, ParseSpecString)
{
    const FaultParams p = parseParams<FaultParams>(
        "seed=42,loss=0.01,reorder=0.25,delay=5:20,nicdrop=0.5,"
        "mce=10000,mceretry=5,breakrecovery=1,conntable=64,"
        "backlog=8,audit=5000").value;
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.lossPct, 0.01);
    EXPECT_DOUBLE_EQ(p.reorderPct, 0.25);
    EXPECT_EQ(p.delayMin, 5u);
    EXPECT_EQ(p.delayMax, 20u);
    EXPECT_DOUBLE_EQ(p.nicDropPct, 0.5);
    EXPECT_EQ(p.mcePeriod, 10000u);
    EXPECT_EQ(p.mceRetryLimit, 5);
    EXPECT_TRUE(p.mceBreakRecovery);
    EXPECT_EQ(p.connTableSize, 64);
    EXPECT_EQ(p.listenBacklog, 8);
    EXPECT_EQ(p.auditEvery, 5000u);
    EXPECT_TRUE(p.any());

    EXPECT_FALSE(FaultParams{}.any());
    EXPECT_FALSE(parseParams<FaultParams>("").value.any());
    // A single-value delay spec sets both bounds.
    const FaultParams d = parseParams<FaultParams>("delay=7").value;
    EXPECT_EQ(d.delayMin, 7u);
    EXPECT_EQ(d.delayMax, 7u);
}

TEST(FaultParams, EnvOverridesReadSmtosFaults)
{
    const EnvOverrides env = EnvOverrides::fromLookup(
        [](const char *name) -> const char * {
            return std::strcmp(name, "SMTOS_FAULTS") == 0
                       ? "loss=0.125,mce=4096"
                       : nullptr;
        });
    ASSERT_TRUE(env.faults.has_value());
    EXPECT_DOUBLE_EQ(env.faults->lossPct, 0.125);
    EXPECT_EQ(env.faults->mcePeriod, 4096u);

    const EnvOverrides empty = EnvOverrides::fromLookup(
        [](const char *) -> const char * { return nullptr; });
    EXPECT_FALSE(empty.faults.has_value());
}

// Inverted link-delay bounds would make drawDelay() draw from a
// wrapped range. Session applies FaultParams::check() to the config's
// params before it builds a plan from them, so the run never starts.
TEST(FaultParams, InvertedDelayIsRejectedBySession)
{
    FaultParams inverted;
    inverted.delayMin = 20;
    inverted.delayMax = 5;
    Session::Config viaParams;
    viaParams.faults = inverted;
    EXPECT_EXIT(Session s(viaParams), testing::ExitedWithCode(1),
                "delay min 20 > max 5");
}

// The machine-check schedule is a pure function of (seed, period):
// two plans with the same params agree on every injection time and
// victim selector; a different seed actually changes the schedule.
TEST(FaultPlan, MceScheduleIsSeedDeterministic)
{
    FaultParams fp;
    fp.mcePeriod = 10000;
    auto schedule = [](const FaultParams &p) {
        FaultPlan plan(p);
        std::vector<std::uint64_t> picks;
        for (Cycle c = 0; c < 200000; ++c)
            if (plan.mceDue(c))
                picks.push_back(plan.takeMce(c));
        return picks;
    };
    const auto a = schedule(fp);
    const auto b = schedule(fp);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    fp.seed ^= 1;
    EXPECT_NE(a, schedule(fp));
}

// Two identically configured lossy/delaying/reordering links deliver
// the same packets in the same order and log the same faults.
TEST(NetworkFault, LinkPerturbationIsDeterministic)
{
    FaultParams fp;
    fp.lossPct = 0.2;
    fp.reorderPct = 0.2;
    fp.delayMin = 3;
    fp.delayMax = 40;

    auto run = [&fp]() {
        FaultPlan plan(fp);
        Network net;
        net.attachFaults(&plan);
        std::ostringstream os;
        for (Cycle now = 0; now < 400; ++now) {
            net.advance(now);
            // A burst per cycle so queues are non-empty when later
            // packets arrive and reordering has something to swap.
            for (int k = 0; k < 3; ++k) {
                Packet p;
                p.client = static_cast<int>((3 * now + k) % 7);
                p.bytes = 100 + static_cast<std::uint32_t>(now % 13);
                p.fileId = static_cast<int>(now % 5);
                net.clientSend(p);
                net.serverSend(p);
            }
            while (net.serverHasRx()) {
                const Packet rx = net.popServerRx();
                os << "s" << rx.client << ":" << rx.bytes << " ";
            }
            while (net.clientHasRx())
                os << "c" << net.popClientRx().client << " ";
        }
        os << "| " << plan.logText();
        return os.str();
    };
    const std::string a = run();
    EXPECT_EQ(a, run());
    EXPECT_NE(a.find("pkt_loss"), std::string::npos);
    EXPECT_NE(a.find("pkt_delay"), std::string::npos);
    EXPECT_NE(a.find("pkt_reorder"), std::string::npos);
}

// Same seed, same plan => byte-identical fault log and metric export
// on the full Apache workload.
TEST(FaultDeterminism, SameSeedIsByteIdentical)
{
    FaultParams fp;
    fp.lossPct = 0.02;
    fp.mcePeriod = 20000;
    const ApacheRun a = runApache(&fp, 120000);
    const ApacheRun b = runApache(&fp, 120000);
    EXPECT_GT(a.counters.pktLost, 0u);
    EXPECT_GT(a.counters.mceRaised, 0u);
    EXPECT_FALSE(a.faultLog.empty());
    EXPECT_EQ(a.faultLog, b.faultLog);
    EXPECT_EQ(a.json, b.json);
}

// An attached plan with every rate at zero must not perturb anything:
// the metric export is bit-identical to a run with no plan at all.
TEST(FaultDeterminism, ZeroRatePlanIsBitIdenticalToNoPlan)
{
    const ApacheRun none = runApache(nullptr, 1'200'000);
    const ApacheRun zero = runApache(nullptr, 1'200'000, true);
    EXPECT_EQ(none.json, zero.json);
    EXPECT_TRUE(zero.faultLog.empty());
    EXPECT_GT(none.requestsServed, 0u);
}

// The acceptance scenario: 1% packet loss plus periodic machine
// checks. The server keeps serving, the recovery paths leave the
// architectural stream exactly as the reference model expects, and
// the invariant auditor stays quiet.
TEST(FaultRecovery, ApacheSurvivesLossAndMceUnderCosim)
{
    MachineConfig cfg = apacheConfig();
    cfg.kernel.web.retryTimeout = 30000;
    System sys(cfg);

    FaultParams fp;
    fp.lossPct = 0.01;
    fp.mcePeriod = 25000;
    fp.auditEvery = 5000;
    FaultPlan plan(fp);
    sys.attachFaults(&plan);
    InvariantAuditor auditor(sys, fp.auditEvery);
    sys.kernel().setAuditor(&auditor);

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(1'500'000);

    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 50000u);
    EXPECT_GT(sys.kernel().requestsServed(), 0u);
    EXPECT_GT(auditor.checksRun(), 0u);
    const FaultCounters c = sys.kernel().faultCounters();
    EXPECT_GT(c.pktLost, 0u);
    EXPECT_GT(c.mceRaised, 0u);
}

// A deliberately broken machine-check recovery path (silent register
// corruption instead of the trap) must be caught by the oracle.
TEST(FaultRecovery, BrokenMceRecoveryIsCaughtByCosim)
{
    MachineConfig cfg = apacheConfig();
    System sys(cfg);

    FaultParams fp;
    fp.mcePeriod = 8000;
    fp.mceBreakRecovery = true;
    FaultPlan plan(fp);
    sys.attachFaults(&plan);

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(200000);

    EXPECT_GT(plan.injected().mceRaised, 0u);
    EXPECT_TRUE(cosim.diverged())
        << "silent architectural corruption was not detected";
}

// Client timeout/retransmit keeps the workload progressing under
// heavy loss.
TEST(FaultRecovery, RetransmitsRecoverHeavyLoss)
{
    MachineConfig cfg = apacheConfig();
    cfg.kernel.web.retryTimeout = 20000;
    System sys(cfg);

    FaultParams fp;
    fp.lossPct = 0.15;
    FaultPlan plan(fp);
    sys.attachFaults(&plan);
    EXPECT_TRUE(sys.kernel().clients().recoveryEnabled());

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(1'500'000);

    const FaultCounters c = sys.kernel().faultCounters();
    EXPECT_GT(c.pktLost, 0u);
    EXPECT_GT(c.retransmits, 0u);
    EXPECT_GT(sys.kernel().clients().responsesCompleted(), 0u);
    // First-try and retried completions land in separate histograms;
    // together they account for every completed response.
    const ClientPopulation &cl = sys.kernel().clients();
    EXPECT_EQ(cl.latency().totalSamples() +
                  cl.retriedLatency().totalSamples(),
              cl.responsesCompleted());
    EXPECT_GT(cl.retriedLatency().totalSamples(), 0u);
    EXPECT_EQ(cl.retriedLatency().totalSamples(),
              cl.retriedResponses());
}

// Connection-table and listen-queue exhaustion is explicit
// backpressure: counted, logged, and exported — not just a warning.
TEST(FaultBackpressure, ExhaustionDropsAreCountedAndExported)
{
    FaultParams fp;
    fp.connTableSize = 4;
    fp.listenBacklog = 1;
    const ApacheRun r = runApache(&fp, 1'500'000);
    EXPECT_GT(r.counters.synDrops + r.counters.backlogDrops, 0u);
    EXPECT_GT(r.requestsServed, 0u);
    EXPECT_NE(r.json.find("\"faults\":{"), std::string::npos);
    EXPECT_NE(r.json.find("\"syn_drops\":"), std::string::npos);
    EXPECT_NE(r.json.find("\"backlog_drops\":"), std::string::npos);
}

// The metric JSON always carries the fault block (zeros without a
// plan), so downstream tooling can rely on the schema.
TEST(FaultExport, JsonCarriesFaultBlockWithoutPlan)
{
    const ApacheRun r = runApache(nullptr, 60000);
    EXPECT_NE(r.json.find("\"faults\":{\"pkt_lost\":0"),
              std::string::npos)
        << r.json;
}

// The auditor passes on a healthy run and flags planted corruption.
TEST(InvariantAuditor, CleanRunPassesPlantedCorruptionFails)
{
    MachineConfig cfg = apacheConfig();
    System sys(cfg);
    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(60000);

    InvariantAuditor auditor(sys, 1000);
    EXPECT_EQ(auditor.checkNow(), "");

    KernelTestPeer::corruptAcceptQueue(sys.kernel());
    const std::string report = auditor.checkNow();
    EXPECT_NE(report, "");
    EXPECT_NE(report.find("accept"), std::string::npos) << report;
}

/** A started two-core Apache chip, 4 contexts per core. */
struct TwoCoreApache
{
    TwoCoreApache()
        : sys([] {
              MachineConfig cfg = apacheConfig();
              cfg.cores = 2;
              cfg.core.numContexts = 4;
              return cfg;
          }()),
          w(buildApache(ApacheParams{}))
    {
        installApache(sys.kernel(), w);
        sys.start();
        sys.runCycles(60000);
    }
    System sys;
    ApacheWorkload w;
};

// The auditor walks every core: corruption planted on core 1's
// pipeline is reported, prefixed with the core it was found on.
TEST(InvariantAuditor, AuditsEveryCore)
{
    TwoCoreApache chip;
    InvariantAuditor auditor(chip.sys, 1000);
    EXPECT_EQ(auditor.checkNow(), "");

    chip.sys.pipeline(1).ctx(0).inflight += 1;
    const std::string report = auditor.checkNow();
    chip.sys.pipeline(1).ctx(0).inflight -= 1;
    EXPECT_NE(report.find("core 1: ctx0: inflight counter"),
              std::string::npos)
        << report;
    EXPECT_EQ(report.find("core 0:"), std::string::npos) << report;
}

// The crash bundle dumps every core's contexts, plus every core's
// run-queue and protocol-queue depth in the kernel section.
TEST(DiagBundle, DumpsEveryCore)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "smtos-diag-cores";
    fs::remove_all(dir);
    diagSetDir(dir.string());

    TwoCoreApache chip;
    diagArm(&chip.sys, nullptr);
    const std::string written = diagWriteBundle("two-core crash");
    diagArm(nullptr, nullptr);
    diagSetDir("");
    ASSERT_EQ(written, dir.string());

    std::ifstream in(dir / "contexts.txt");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    for (const char *want : {"== core 0 ==", "== core 1 ==",
                             "core 0: runq depth", "core 1: runq depth"})
        EXPECT_NE(text.find(want), std::string::npos) << want;
    EXPECT_EQ(text.find("== core 2 =="), std::string::npos);
    fs::remove_all(dir);
}

// The harness builds a plan from Session::Config::faults and reports its
// counters through the phase deltas.
TEST(FaultHarness, RunExperimentThreadsFaultParams)
{
    Session::Config spec;
    spec.workload.kind = WorkloadConfig::Kind::Apache;
    spec.phases.startupInstrs = 40000;
    spec.phases.measureInstrs = 120000;
    spec.faults.lossPct = 0.05;
    const RunResult r = Session(spec).run();
    EXPECT_GT(r.steady.faults.pktLost + r.startup.faults.pktLost, 0u);
}

// The crash-diagnostics bundle lands in SMTOS_DIAG_DIR with the
// reason, both state dumps, and the fault log.
TEST(DiagBundle, WritesBundleDirectory)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "smtos-diag-test";
    fs::remove_all(dir);
    diagSetDir(dir.string());

    MachineConfig cfg = apacheConfig();
    System sys(cfg);
    FaultParams fp;
    fp.lossPct = 0.05;
    FaultPlan plan(fp);
    sys.attachFaults(&plan);
    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(60000);

    diagArm(&sys, &plan);
    const std::string written = diagWriteBundle("unit-test crash");
    diagArm(nullptr, nullptr);
    diagSetDir("");

    EXPECT_EQ(written, dir.string());
    EXPECT_TRUE(fs::exists(dir / "crash.txt"));
    EXPECT_TRUE(fs::exists(dir / "contexts.txt"));
    EXPECT_TRUE(fs::exists(dir / "faultlog.txt"));
    EXPECT_TRUE(fs::exists(dir / "ring.txt"));

    std::ifstream crash(dir / "crash.txt");
    std::string line;
    std::getline(crash, line);
    EXPECT_EQ(line, "unit-test crash");

    std::ifstream ctxs(dir / "contexts.txt");
    std::stringstream ss;
    ss << ctxs.rdbuf();
    EXPECT_NE(ss.str().find("ctx"), std::string::npos);
    fs::remove_all(dir);
}

// Disarmed, the bundle writer is inert.
TEST(DiagBundle, DisarmedWritesNothing)
{
    EXPECT_EQ(diagWriteBundle("nobody home"), "");
}
