/**
 * @file
 * CMP/SMP correctness: the MESI hub's closed-form latencies, the TLB
 * shootdown completion invariant, work-stealing determinism, per-core
 * profiler attribution, a cosim fuzz over the topology matrix, and
 * the one snapshot layout every chip width shares.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/session.h"
#include "mem/coherence.h"
#include "mem/hierarchy.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "sim/export.h"
#include "sim/system.h"

using namespace smtos;

namespace {

// --- MESI unit fixtures: two private hierarchies behind one hub. ---

struct Chip2
{
    Uncore uncore{HierarchyParams{}};
    Hierarchy h0{HierarchyParams{}, uncore};
    Hierarchy h1{HierarchyParams{}, uncore};
    CoherenceHub &hub = uncore.coherence();
};

const AccessInfo who0{0, Mode::User, 0};
const AccessInfo who1{1, Mode::User, 1};

// --- Session configs ---

Session::Config
smpSpec(int cores, int ctx)
{
    Session::Config s;
    s.system.topology.cores = cores;
    s.system.topology.contextsPerCore = ctx;
    s.workload.kind = WorkloadConfig::Kind::SpecInt;
    s.workload.spec.inputChunks = 16;
    s.phases.startupInstrs = 120'000;
    s.phases.measureInstrs = 160'000;
    return s;
}

Session::Config
smpApache(int cores, int ctx)
{
    Session::Config s = smpSpec(cores, ctx);
    s.workload.kind = WorkloadConfig::Kind::Apache;
    return s;
}

/** Walk the artifact's section framing: (fourcc, version) in order. */
std::vector<std::pair<std::string, std::uint32_t>>
sectionsOf(const std::vector<std::uint8_t> &artifact)
{
    std::vector<std::pair<std::string, std::uint32_t>> out;
    std::size_t pos = 8 + 4 + 8 + 8; // magic, format, length, checksum
    while (pos + 16 <= artifact.size()) {
        char tag[5] = {0};
        std::memcpy(tag, artifact.data() + pos, 4);
        std::uint32_t version;
        std::memcpy(&version, artifact.data() + pos + 4,
                    sizeof version);
        std::uint64_t len;
        std::memcpy(&len, artifact.data() + pos + 8, sizeof len);
        out.emplace_back(tag, version);
        pos += 16 + len;
    }
    EXPECT_EQ(pos, artifact.size());
    return out;
}

} // namespace

// ===================== MESI state machine =====================

// A store with no remote copy is MESI's silent E->M: no invalidation,
// no upgrade broadcast, zero added latency.
TEST(Mesi, ExclusiveToModifiedIsSilent)
{
    Chip2 c;
    c.h0.l1d().access(0x1000, who0, false);
    EXPECT_EQ(c.hub.onWrite(0, 0x1000), 0u);
    EXPECT_EQ(c.hub.stats().snoopProbes, 1u);
    EXPECT_EQ(c.hub.stats().invalidations, 0u);
    EXPECT_EQ(c.hub.stats().upgrades, 0u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
}

// A store that finds a remote clean sharer pays exactly the S->M
// upgrade broadcast and invalidates the remote copy.
TEST(Mesi, UpgradeInvalidatesCleanSharer)
{
    Chip2 c;
    c.h1.l1d().access(0x2000, who1, false); // remote Shared copy
    EXPECT_TRUE(c.h1.l1d().probe(0x2000));
    EXPECT_EQ(c.hub.onWrite(0, 0x2000), CoherenceHub::upgradeLatency);
    EXPECT_FALSE(c.h1.l1d().probe(0x2000));
    EXPECT_EQ(c.hub.stats().invalidations, 1u);
    EXPECT_EQ(c.hub.stats().upgrades, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
}

// A store that finds a remote Modified copy pays the intervention
// writeback (the dirty data's trip to the shared L2 is on the
// store's critical path), not the cheap upgrade.
TEST(Mesi, WriteToRemoteModifiedPaysIntervention)
{
    Chip2 c;
    c.h1.l1d().access(0x3000, who1, true); // remote Modified copy
    EXPECT_TRUE(c.h1.l1d().probeDirty(0x3000));
    EXPECT_EQ(c.hub.onWrite(0, 0x3000),
              CoherenceHub::interventionLatency);
    EXPECT_FALSE(c.h1.l1d().probe(0x3000));
    EXPECT_EQ(c.hub.stats().invalidations, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 1u);
    EXPECT_EQ(c.hub.stats().upgrades, 0u);
}

// A read miss downgrades a remote Modified copy M->S: the remote
// copy stays resident but loses dirty ownership, and the requester
// pays the intervention on its fill path.
TEST(Mesi, ReadMissDowngradesRemoteModified)
{
    Chip2 c;
    c.h1.l1d().access(0x4000, who1, true);
    EXPECT_EQ(c.hub.onReadMiss(0, 0x4000),
              CoherenceHub::interventionLatency);
    EXPECT_TRUE(c.h1.l1d().probe(0x4000));
    EXPECT_FALSE(c.h1.l1d().probeDirty(0x4000));
    EXPECT_EQ(c.hub.stats().downgrades, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 1u);
    // A second read miss finds the copy already Shared: free.
    EXPECT_EQ(c.hub.onReadMiss(0, 0x4000), 0u);
    EXPECT_EQ(c.hub.stats().downgrades, 1u);
}

// Clean remote sharers cost a read miss nothing.
TEST(Mesi, ReadMissWithCleanSharerIsFree)
{
    Chip2 c;
    c.h1.l1d().access(0x5000, who1, false);
    EXPECT_EQ(c.hub.onReadMiss(0, 0x5000), 0u);
    EXPECT_EQ(c.hub.stats().downgrades, 0u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
    EXPECT_TRUE(c.h1.l1d().probe(0x5000));
}

// DMA writes (disk reads landing in memory) invalidate every core's
// stale L1D copy.
TEST(Mesi, DmaInvalidatesEveryCore)
{
    Chip2 c;
    c.h0.l1d().access(0x6000, who0, false);
    c.h1.l1d().access(0x6000, who1, false);
    c.hub.dmaInvalidate(0x6000);
    EXPECT_FALSE(c.h0.l1d().probe(0x6000));
    EXPECT_FALSE(c.h1.l1d().probe(0x6000));
}

// ===================== TLB shootdowns =====================

// munmap on a CMP IPIs every other core; the kernel's ledger must
// balance (raised = delivered + pending) and the audit must stay
// clean through delivery. Small heaps make the workload's munmap
// calls hit mapped pages deterministically often.
TEST(Shootdown, CompletionInvariantHolds)
{
    Session::Config cfg = smpSpec(2, 4);
    cfg.workload.spec.heapBase = 1ull << 16;
    cfg.workload.spec.heapStep = 1ull << 14;
    cfg.phases.startupInstrs = 400'000;
    cfg.phases.measureInstrs = 1'500'000;
    Session s(cfg);
    s.run();
    const Kernel &k = s.system().kernel();
    EXPECT_GT(k.shootdownIpis(), 0u);
    EXPECT_GT(k.shootdownsDelivered(), 0u);
    EXPECT_LE(k.shootdownsDelivered(), k.shootdownIpis());
    EXPECT_EQ(s.system().kernel().auditInvariants(), "");
}

// ===================== work stealing =====================

// An imbalanced process count (5 user procs across 2 cores x 2
// contexts) forces idle cores to steal; twin runs must agree on
// every exported number and on the steal count itself.
TEST(WorkStealing, StealsHappenAndRunsAreDeterministic)
{
    Session::Config cfg = smpSpec(2, 2);
    cfg.workload.spec.numApps = 5;
    cfg.workload.spec.inputChunks = 40;
    cfg.phases.startupInstrs = 600'000;
    cfg.phases.measureInstrs = 200'000;

    Session a(cfg);
    const RunResult ra = a.run();
    Session b(cfg);
    const RunResult rb = b.run();

    EXPECT_GT(a.system().kernel().workSteals(), 0u);
    EXPECT_EQ(a.system().kernel().workSteals(),
              b.system().kernel().workSteals());
    EXPECT_EQ(toJson(ra.startup), toJson(rb.startup));
    EXPECT_EQ(toJson(ra.steady), toJson(rb.steady));
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(a.system().kernel().auditInvariants(), "");
}

// ===================== per-core aggregates =====================

// The top-level capture is the machine aggregate of the per-core
// slices: instruction counts sum, and lockstep makes every core
// report the same chip cycle.
TEST(Topology, PerCoreSlicesSumToMachineAggregates)
{
    Session s(smpApache(2, 4));
    const RunResult r = s.run();
    ASSERT_EQ(r.steady.cores.size(), 2u);
    std::uint64_t instrs = 0;
    for (const CoreSlice &c : r.steady.cores) {
        instrs += c.core.totalRetired();
        EXPECT_EQ(c.core.cycles, r.steady.core.cycles);
    }
    EXPECT_EQ(instrs, r.steady.core.totalRetired());
    EXPECT_TRUE(r.steady.smp.coherence.any());

    const std::string json = toJson(r.steady);
    EXPECT_NE(json.find("\"cores\":["), std::string::npos);
    EXPECT_NE(json.find("\"smp\":{"), std::string::npos);
    EXPECT_NE(json.find("\"coherence\""), std::string::npos);
}

// ===================== per-core profiling =====================

// The cycle profiler charges lost fetch slots to global context ids:
// with two 4-context cores, core 1's contexts are ctx4..7, and every
// one of them loses slots somewhere in an Apache run.
TEST(Topology, FetchSlotLossesChargeEveryCoresContexts)
{
    ObsConfig oc;
    oc.profile = true;
    ObsSession obs(oc);
    Session::Config cfg = smpApache(2, 4);
    cfg.obs = &obs;
    Session s(cfg);
    s.run();
    const CycleProfiler *prof = obs.profiler();
    ASSERT_NE(prof, nullptr);
    for (CtxId gid = 0; gid < 8; ++gid)
        EXPECT_GT(prof->fetchSlotsLostByCtx(gid), 0u) << "ctx" << gid;
}

// ===================== cosim fuzz =====================

struct FuzzCase
{
    int seed;
};

class SmpCosimFuzz : public ::testing::TestWithParam<int>
{
};

// 52 seeds across {1,2,4} cores x {1,2,4,8} contexts, alternating
// SPECInt and Apache. runMeasurement panics on divergence, so a
// surviving oracle with checked() > 0 is the assertion.
TEST_P(SmpCosimFuzz, OracleStaysClean)
{
    const int seed = GetParam();
    static const int coreChoices[] = {1, 2, 4};
    static const int ctxChoices[] = {1, 2, 4, 8};
    const int cores = coreChoices[seed % 3];
    const int ctx = ctxChoices[(seed / 3) % 4];
    Session::Config cfg = seed % 2 ? smpApache(cores, ctx)
                                   : smpSpec(cores, ctx);
    cfg.phases.startupInstrs = 60'000;
    cfg.phases.measureInstrs = 80'000;
    cfg.workload.seed = 1000 + static_cast<std::uint64_t>(seed);
    cfg.cosim = true;
    Session s(cfg);
    s.run();
    ASSERT_NE(s.cosim(), nullptr);
    EXPECT_FALSE(s.cosim()->diverged());
    EXPECT_GT(s.cosim()->checked(), 0u);
    EXPECT_EQ(s.system().kernel().auditInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpCosimFuzz,
                         ::testing::Range(0, 52));

// ===================== snapshot layout =====================

namespace {

struct LayoutCase
{
    int cores;
    /** Every CFG field off its default, co-simulated and traced. */
    bool everyField;
};

std::string
layoutName(const ::testing::TestParamInfo<LayoutCase> &info)
{
    return "Cores" + std::to_string(info.param.cores) +
           (info.param.everyField ? "EveryField" : "");
}

class SnapshotLayout : public ::testing::TestWithParam<LayoutCase>
{
};

/** An Apache session with every serialized config field moved off its
 *  default (sampling keeps it to one core). */
Session::Config
everyFieldConfig()
{
    Session::Config c = smpApache(1, 4);
    SystemConfig &sc = c.system;
    sc.filterKernelRefs = true;
    sc.fetchContexts = 1;
    sc.roundRobinFetch = true;
    sc.affinitySched = true;
    sc.sharedTlbIpr = true;
    sc.dram.banked = true;
    sc.dram.channels = 4;
    sc.dram.ranks = 1;
    sc.dram.banksPerRank = 4;
    sc.dram.rowBytes = 4096;
    sc.dram.burstBytes = 32;
    sc.dram.queueDepth = 8;
    sc.dram.closedPage = true;
    sc.dram.tRcd = 28;
    sc.dram.tRp = 29;
    sc.dram.tCas = 24;
    sc.dram.tBurst = 5;
    sc.dram.tFaw = 64;
    sc.admit.policy = AdmitPolicy::OldestFirst;
    sc.admit.queueCap = 8;
    sc.admit.redMinDepth = 2;
    sc.admit.redMaxProb = 0.5;
    sc.admit.shedDeadline = 30'000;
    sc.admit.seed = 5;
    sc.admit.mbufAccounting = true;

    WorkloadConfig &wc = c.workload;
    wc.spec.numApps = 3;
    wc.spec.heapBase = 1ull << 21;
    wc.spec.heapStep = 1ull << 19;
    wc.spec.seed = 11;
    wc.apache.numServers = 24;
    wc.apache.heapBytes = 1ull << 19;
    wc.apache.seed = 13;
    OpenLoopParams &ol = wc.openLoop;
    ol.enabled = true;
    ol.kind = ArrivalKind::Bursty;
    ol.ratePerMcycle = 60.0;
    ol.burstFactor = 3.0;
    ol.burstDuty = 0.5;
    ol.burstPeriod = 100'000;
    ol.rampStartFactor = 0.5;
    ol.rampCycles = 500'000;
    ol.slowPct = 0.2;
    ol.slowDrainPerKb = 2000;
    ol.keepAlivePct = 0.2;
    ol.retryTimeout = 50'000;
    ol.maxRetries = 3;
    ol.seed = 17;
    wc.seed = 7;

    FaultParams &fp = c.faults;
    fp.seed = 19;
    fp.lossPct = 0.02;
    fp.reorderPct = 0.01;
    fp.delayMin = 10;
    fp.delayMax = 200;
    fp.nicDropPct = 0.01;
    fp.mcePeriod = 30'000;
    fp.mceRetryLimit = 5;
    fp.connTableSize = 256;
    fp.listenBacklog = 64;
    fp.auditEvery = 7'000;

    c.sample.enabled = true;
    c.sample.periodInstrs = 40'000;
    c.sample.warmInstrs = 4'000;
    c.sample.intervalInstrs = 3'000;
    c.sample.confidence = 0.9;
    c.cosim = true;
    return c;
}

} // namespace

// Every artifact, at every chip width, is an SMTOSNP2 artifact with one
// section sequence — CFG PHYS KERN (PIPE HIER)xN UNCR FLTP COSM RQTR,
// traced or not — and resuming then re-snapshotting reproduces it byte
// for byte. The every-field case also proves the
// one CFG field list carries the whole config: its resumed measurement
// matches the straight-through one. The previous format era is
// refused with an error, not an abort, and one-core metrics JSON
// keeps the paper machine's key set (no per-core or SMP objects).
TEST_P(SnapshotLayout, OneSectionSequenceAtEveryWidth)
{
    const LayoutCase lc = GetParam();
    Session::Config cfg =
        lc.everyField ? everyFieldConfig() : smpApache(lc.cores, 2);
    ObsConfig oc;
    oc.reqtrace = lc.everyField;
    ObsSession originObs(oc);
    if (lc.everyField)
        cfg.obs = &originObs;
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    ASSERT_GE(artifact.size(), 12u);
    EXPECT_EQ(std::string(artifact.begin(), artifact.begin() + 8),
              "SMTOSNP2");
    std::uint32_t format = 0;
    std::memcpy(&format, artifact.data() + 8, sizeof format);
    EXPECT_EQ(format, 3u);
    std::vector<std::string> want = {"CFG ", "PHYS", "KERN"};
    for (int c = 0; c < lc.cores; ++c) {
        want.push_back("PIPE");
        want.push_back("HIER");
    }
    for (const char *tag : {"UNCR", "FLTP", "COSM", "RQTR"})
        want.push_back(tag);
    std::vector<std::string> got;
    for (const auto &sec : sectionsOf(artifact))
        got.push_back(sec.first);
    EXPECT_EQ(got, want);

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    opts.cosim = cfg.cosim;
    ObsSession resumedObs(oc);
    if (lc.everyField)
        opts.obs = &resumedObs;
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    // Restore rebuilds the scheduler state derived from the windows
    // rather than reading it; every core audits clean at once.
    for (int c = 0; c < resumed->system().numCores(); ++c)
        EXPECT_EQ(resumed->system().pipeline(c).auditInvariants(), "")
            << "core " << c;
    EXPECT_EQ(artifact, resumed->snapshot());
    if (lc.everyField) {
        EXPECT_EQ(toJson(origin.runMeasurement().steady),
                  toJson(resumed->runMeasurement().steady));
    }

    std::vector<std::uint8_t> oldEra = artifact;
    oldEra[7] = '1';
    err.clear();
    EXPECT_EQ(Session::resume(oldEra, Session::ResumeOptions{}, &err),
              nullptr);
    EXPECT_NE(err.find("format era 1"), std::string::npos) << err;

    const std::string json =
        toJson(MetricsSnapshot::capture(origin.system()));
    const bool multicore = lc.cores > 1;
    EXPECT_EQ(json.find("\"cores\":[") != std::string::npos, multicore);
    EXPECT_EQ(json.find("\"smp\":{") != std::string::npos, multicore);
}

INSTANTIATE_TEST_SUITE_P(Widths, SnapshotLayout,
                         ::testing::Values(LayoutCase{1, false},
                                           LayoutCase{2, false},
                                           LayoutCase{4, false},
                                           LayoutCase{1, true}),
                         layoutName);

// A CMP measurement resumed from the artifact is byte-identical to
// the uninterrupted one, and restoring then re-snapshotting loses
// nothing.
TEST(SnapshotFormat, CmpRoundTripIsExact)
{
    Session::Config cfg = smpApache(2, 4);
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    std::string err;
    auto identity =
        Session::resume(artifact, Session::ResumeOptions{}, &err);
    ASSERT_NE(identity, nullptr) << err;
    EXPECT_EQ(artifact, identity->snapshot());

    const std::string straight =
        toJson(origin.runMeasurement().steady);
    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(straight, toJson(resumed->runMeasurement().steady));
}

// The cosim oracle survives a CMP snapshot/restore boundary.
TEST(SnapshotFormat, CmpCosimSurvivesRestore)
{
    Session::Config cfg = smpSpec(2, 4);
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

// ===================== SMTOS_CORES =====================

TEST(SmpEnv, SmtosCoresParsesAndValidates)
{
    const EnvOverrides ov =
        EnvOverrides::fromLookup([](const char *name) -> const char * {
            return std::strcmp(name, "SMTOS_CORES") == 0 ? "4"
                                                         : nullptr;
        });
    EXPECT_EQ(ov.cores, 4);

    const EnvOverrides none = EnvOverrides::fromLookup(
        [](const char *) -> const char * { return nullptr; });
    EXPECT_FALSE(none.cores.has_value());
}

namespace {

/** Install @p vars as the ambient SMTOS_* environment. */
void
installAmbient(std::vector<std::pair<const char *, const char *>> vars)
{
    EnvOverrides::fromLookup([vars](const char *name) -> const char * {
        for (const auto &[k, v] : vars)
            if (std::strcmp(name, k) == 0)
                return v;
        return nullptr;
    }).install();
}

/** A 2-core start-up artifact, for the resume-override checks. */
std::vector<std::uint8_t>
cmpArtifact()
{
    Session::Config cfg = smpSpec(2, 2);
    cfg.phases.startupInstrs = 20'000;
    Session s(cfg);
    s.runStartup();
    return s.snapshot();
}

} // namespace

// Ambient overrides face Session::validate like the config itself: the
// environment cannot turn a multicore chip into a mode that models one
// core. (Each death test runs in a child, so the installed ambient
// does not leak into later tests.)
TEST(SmpEnvDeathTest, CoresWithFunctionalFidelityIsRejected)
{
    EXPECT_EXIT(
        {
            installAmbient(
                {{"SMTOS_CORES", "2"}, {"SMTOS_FIDELITY", "functional"}});
            Session s(Session::Config{});
        },
        testing::ExitedWithCode(1), "detailed only");
}

TEST(SmpEnvDeathTest, CoresWithSamplingIsRejected)
{
    EXPECT_EXIT(
        {
            installAmbient({{"SMTOS_CORES", "2"},
                            {"SMTOS_SAMPLE",
                             "period=20000,warm=2000,interval=2000"}});
            Session s(Session::Config{});
        },
        testing::ExitedWithCode(1), "sampled measurement is single-core");
}

// Resume-time overrides are validated too, after all of them apply.
TEST(SmpResumeDeathTest, FunctionalOverrideIsRejected)
{
    const std::vector<std::uint8_t> art = cmpArtifact();
    Session::ResumeOptions opts;
    opts.fidelity = Fidelity::Functional;
    EXPECT_EXIT(Session::resume(art, opts), testing::ExitedWithCode(1),
                "detailed only");
}

TEST(SmpResumeDeathTest, SampleOverrideIsRejected)
{
    const std::vector<std::uint8_t> art = cmpArtifact();
    Session::ResumeOptions opts;
    SampleParams sp;
    sp.enabled = true;
    sp.periodInstrs = 20'000;
    sp.warmInstrs = 2'000;
    sp.intervalInstrs = 2'000;
    opts.sample = sp;
    EXPECT_EXIT(Session::resume(art, opts), testing::ExitedWithCode(1),
                "sampled measurement is single-core");
}
