/**
 * @file
 * Switchable-fidelity + SMARTS sampling validation (DESIGN.md §15).
 *
 * The functional (warming-only) engine must retire the exact
 * architectural stream the RefCore oracle predicts, across fuzzed
 * programs, context widths, and arbitrary fidelity switch points; a
 * sampled measurement must reproduce full-detail CPI and mode
 * breakdowns within its own reported confidence intervals (plus a
 * small systematic-bias floor); and fidelity state must round-trip
 * through snapshots so sampled/functional runs resume
 * bit-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/params.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/parallel.h"
#include "harness/sample.h"
#include "harness/session.h"
#include "ref/progfuzz.h"
#include "sim/config.h"
#include "sim/export.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workload/apache.h"
#include "workload/specint.h"

using namespace smtos;

namespace {

MachineConfig
fuzzConfig(int contexts)
{
    MachineConfig cfg = smtConfig();
    cfg.core.numContexts = contexts;
    cfg.core.fetchContexts = contexts >= 2 ? 2 : 1;
    // Short quantum so short runs still exercise timer interrupts,
    // preemption, and context-switch state syncs.
    cfg.kernel.timerQuantum = 6000;
    return cfg;
}

/** One fuzzed functional-mode co-simulated run; returns instructions
 *  verified. */
std::uint64_t
runFuzzFunctional(std::uint64_t seed, int contexts, Cycle cycles,
                  std::uint64_t inject_at = 0,
                  std::string *report = nullptr)
{
    MachineConfig cfg = fuzzConfig(contexts);
    cfg.kernel.seed = seed;

    // One more runnable program than contexts, so the scheduler has
    // to multiplex and every run crosses thread migrations.
    std::vector<FuzzedProgram> progs;
    System sys(cfg);
    for (int i = 0; i <= contexts; ++i) {
        progs.push_back(fuzzProgram(mixHash(seed, 77u + i)));
        installFuzzedProc(sys.kernel(), progs.back(), i);
    }

    Cosim cosim(sys.pipes());
    if (inject_at)
        sys.pipeline().injectRetireFault(inject_at);
    sys.start();
    sys.pipeline().setFidelity(Fidelity::Functional);
    sys.runCycles(cycles);

    if (report)
        *report = cosim.report();
    if (inject_at) {
        EXPECT_TRUE(cosim.diverged())
            << "seed " << seed << ": injected fault not caught";
    } else {
        EXPECT_FALSE(cosim.diverged())
            << "seed " << seed << ", " << contexts
            << " contexts (functional):\n" << cosim.report();
        EXPECT_GT(cosim.syncs(), 0u);
        EXPECT_TRUE(sys.pipeline().auditInvariants().empty())
            << sys.pipeline().auditInvariants();
    }
    return cosim.checked();
}

/** Full metric export (JSON + CSV) of a system's current counters. */
std::string
exportAll(System &sys)
{
    MetricsSnapshot s = MetricsSnapshot::capture(sys);
    std::ostringstream os;
    os << toJson(s) << "\n";
    writeCsvRow(os, "run", s, true);
    return os.str();
}

} // namespace

// The functional engine's acceptance loop: the same >= 50 fuzzed
// seeds x 1/2/4/8-context sweep the detailed core passes, executed
// entirely at Fidelity::Functional, zero divergences from the RefCore
// oracle.
TEST(FunctionalFuzz, NoDivergenceAcrossSeedsAndWidths)
{
    const int widths[] = {1, 2, 4, 8};
    constexpr int perWidth = 13;
    constexpr int runs = 4 * perWidth;
    std::atomic<std::uint64_t> total_checked{0};
    parallelFor(runs, [&](std::size_t i) {
        const int w = widths[i / perWidth];
        const std::uint64_t seed = 1 + i;
        total_checked += runFuzzFunctional(seed, w, 8000);
    });
    // Functional cycles retire a fetch-width batch, so even short
    // runs verify a substantial stream.
    EXPECT_GT(total_checked.load(), 52u * 10000u);
}

// A misreported functional retirement is caught at exactly that
// instruction — the oracle guards functional execution as strictly as
// detailed execution.
TEST(Functional, InjectedFaultIsCaughtWithDiagnosis)
{
    std::string report;
    const std::uint64_t checked =
        runFuzzFunctional(3, 4, 4000, 4000, &report);
    EXPECT_EQ(checked, 3999u);
    EXPECT_NE(report.find("cosim divergence"), std::string::npos)
        << report;
}

// Functional SpecInt retires all four privilege modes: timer
// interrupts, scheduling, PAL transitions, and idle threads all run
// through the functional engine.
TEST(Functional, CoversAllModes)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 5;
    System sys(cfg);
    SpecIntParams p;
    p.numApps = 4; // fewer apps than contexts: idle threads run
    p.inputChunks = 16;
    SpecIntWorkload w = buildSpecInt(p);
    installSpecInt(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.pipeline().setFidelity(Fidelity::Functional);
    sys.runCycles(30000);
    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    const CoreStats &cs = sys.pipeline().stats();
    EXPECT_GT(cs.retired[static_cast<int>(Mode::User)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Kernel)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Pal)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Idle)], 0u);
    EXPECT_EQ(cs.totalRetired(), sys.pipeline().fidelityStats().funcInstrs);
}

// Switch-point torture: alternate fidelity every leg across fuzzed
// programs and widths. Every detailed interval after a switch must be
// cosim-clean and the pipeline invariants must hold at every
// boundary (the drain left nothing in flight, conservation holds).
TEST(FidelitySwitch, TortureStaysCosimClean)
{
    const int widths[] = {1, 2, 4, 8};
    parallelFor(4, [&](std::size_t wi) {
        const int w = widths[wi];
        const std::uint64_t seed = 101 + wi;
        MachineConfig cfg = fuzzConfig(w);
        cfg.kernel.seed = seed;
        std::vector<FuzzedProgram> progs;
        System sys(cfg);
        for (int i = 0; i <= w; ++i) {
            progs.push_back(fuzzProgram(mixHash(seed, 77u + i)));
            installFuzzedProc(sys.kernel(), progs.back(), i);
        }
        Cosim cosim(sys.pipes());
        sys.start();
        for (int leg = 0; leg < 10; ++leg) {
            sys.pipeline().setFidelity(
                leg % 2 ? Fidelity::Functional : Fidelity::Detailed);
            sys.runCycles(3000 + 700 * leg);
            EXPECT_FALSE(cosim.diverged())
                << w << " contexts, leg " << leg << ":\n"
                << cosim.report();
            EXPECT_TRUE(sys.pipeline().auditInvariants().empty())
                << sys.pipeline().auditInvariants();
        }
        EXPECT_GT(sys.pipeline().fidelityStats().switches, 8u);
        EXPECT_GT(sys.pipeline().fidelityStats().funcInstrs, 0u);
    });
}

// A zero-length fidelity toggle (switch to functional and straight
// back, executing nothing) at a drained boundary is invisible:
// metrics exports stay bit-identical to the run that never touched
// the fidelity API. A mid-run toggle must drain (real cycles run),
// but still keeps the fidelity block out of the export — counters
// only surface once functional instructions actually execute.
TEST(FidelitySwitch, NoOpToggleIsExportInvisible)
{
    auto run = [](bool toggle, bool midRun) {
        MachineConfig cfg = fuzzConfig(4);
        cfg.kernel.seed = 42;
        std::vector<FuzzedProgram> progs;
        System sys(cfg);
        for (int i = 0; i < 5; ++i) {
            progs.push_back(fuzzProgram(mixHash(42, 77u + i)));
            installFuzzedProc(sys.kernel(), progs.back(), i);
        }
        sys.start();
        if (toggle && !midRun) {
            // Nothing in flight yet: the toggle drains nothing.
            sys.pipeline().setFidelity(Fidelity::Functional);
            sys.pipeline().setFidelity(Fidelity::Detailed);
        }
        sys.runCycles(10000);
        if (toggle && midRun) {
            sys.pipeline().setFidelity(Fidelity::Functional);
            sys.pipeline().setFidelity(Fidelity::Detailed);
        }
        sys.runCycles(10000);
        EXPECT_EQ(sys.pipeline().fidelityStats().funcInstrs, 0u);
        return exportAll(sys);
    };
    EXPECT_EQ(run(false, false), run(true, false));
    // The mid-run toggle changes timing (the drain is real work) but
    // never invents a fidelity block in the export.
    EXPECT_EQ(run(true, true).find("fidelity"), std::string::npos);
}

// Hybrid execution makes architectural progress faster than detailed
// execution over the same cycle budget (functional legs retire a
// fetch-width batch per cycle) while staying oracle-clean.
TEST(FidelitySwitch, FunctionalLegsAccelerateRetirement)
{
    auto retiredAfter = [](bool hybrid) {
        MachineConfig cfg = fuzzConfig(4);
        cfg.kernel.seed = 9;
        std::vector<FuzzedProgram> progs;
        System sys(cfg);
        for (int i = 0; i < 5; ++i) {
            progs.push_back(fuzzProgram(mixHash(9, 77u + i)));
            installFuzzedProc(sys.kernel(), progs.back(), i);
        }
        Cosim cosim(sys.pipes());
        sys.start();
        for (int leg = 0; leg < 4; ++leg) {
            if (hybrid)
                sys.pipeline().setFidelity(
                    leg % 2 ? Fidelity::Functional
                            : Fidelity::Detailed);
            sys.runCycles(10000);
        }
        EXPECT_FALSE(cosim.diverged()) << cosim.report();
        return sys.pipeline().stats().totalRetired();
    };
    const std::uint64_t detailed = retiredAfter(false);
    const std::uint64_t hybrid = retiredAfter(true);
    EXPECT_GT(hybrid, detailed + detailed / 2);
}

// --- both engines on the paper's two reduced machines ---

namespace {

/** (engine, machine): true is SpecInt application-only (Table 4),
 *  false is Apache with the kernel-reference filter (Table 9). */
class ReducedMachineCosim
    : public ::testing::TestWithParam<std::tuple<Fidelity, bool>>
{
};

} // namespace

// Both engines run the application-only TLB refill and the
// privileged-reference filter through the same translation and
// branch-training code: each stays oracle-clean, and the counters the
// paper's tables read show the mode took effect.
TEST_P(ReducedMachineCosim, StaysCleanAndHonoursTheMode)
{
    const auto [fidelity, app_only] = GetParam();
    Session::Config cfg;
    cfg.workload.kind = app_only ? WorkloadConfig::Kind::SpecInt
                                 : WorkloadConfig::Kind::Apache;
    cfg.workload.seed = 11;
    cfg.system.withOs = !app_only;
    cfg.system.filterKernelRefs = !app_only;
    cfg.fidelity = fidelity;
    cfg.phases.startupInstrs = 200'000;
    cfg.phases.measureInstrs = 300'000;
    cfg.cosim = true;
    Session s(cfg);
    const RunResult r = s.run();

    ASSERT_NE(s.cosim(), nullptr);
    EXPECT_FALSE(s.cosim()->diverged()) << s.cosim()->report();
    EXPECT_GE(s.cosim()->checked(), 500'000u);
    EXPECT_EQ(s.system().pipeline().fidelity(), fidelity);
    const CoreStats &life = s.system().pipeline().stats();
    const MetricsSnapshot &d = r.steady;
    if (app_only) {
        // No OS code runs, and TLB misses refill without a trap.
        EXPECT_EQ(life.retired[static_cast<int>(Mode::User)],
                  life.totalRetired());
        EXPECT_EQ(life.kernelEntries.get("itlb_miss"), 0u);
        EXPECT_EQ(life.kernelEntries.get("dtlb_miss"), 0u);
        EXPECT_GT(d.dtlb.misses[0], 0u);
    } else {
        // The kernel runs, but none of its references reach the
        // filtered structures.
        EXPECT_GT(d.core.retired[static_cast<int>(Mode::Kernel)], 0u);
        EXPECT_EQ(d.btb.accesses[1], 0u);
        EXPECT_EQ(d.l1i.accesses[1], 0u);
        EXPECT_EQ(d.l1d.accesses[1], 0u);
        EXPECT_GT(d.btb.accesses[0], 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReducedMachineCosim,
    ::testing::Combine(::testing::Values(Fidelity::Detailed,
                                         Fidelity::Functional),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(fidelityName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_AppOnlySpecInt"
                                        : "_FilteredApache");
    });

namespace {

/** |full - sampled| must fit the sampled run's own error bound plus
 *  a floor for the systematic (non-sampling) bias. */
void
expectWithin(double full, const SampleEstimate &est, double floorAbs,
             const char *what)
{
    const double bound = 3.0 * est.halfWidth + floorAbs;
    EXPECT_LE(std::fabs(full - est.mean), bound)
        << what << ": full " << full << " vs sampled " << est.mean
        << " +/- " << est.halfWidth << " (bound " << bound << ")";
}

/** Full-detail vs sampled measurement of one workload/width point. */
void
sampledVsFull(WorkloadConfig::Kind kind, int contexts)
{
    Session::Config base;
    base.system.topology.contextsPerCore = contexts;
    base.workload.kind = kind;
    base.workload.seed = 31 + contexts;
    base.phases.startupInstrs = 40'000;
    base.phases.measureInstrs = 400'000;

    Session full(base);
    const RunResult fr = full.run();
    const double fullCpi =
        static_cast<double>(fr.steady.core.cycles) /
        static_cast<double>(fr.steady.core.totalRetired());
    const ModeShares fm = modeShares(fr.steady);

    Session::Config sc = base;
    sc.sample.enabled = true;
    sc.sample.periodInstrs = 25'000;
    sc.sample.warmInstrs = 2'500;
    sc.sample.intervalInstrs = 2'500;
    sc.sample.confidence = 0.95;
    // The skipped instructions still retire against the oracle.
    sc.cosim = true;
    Session sampled(sc);
    const RunResult sr = sampled.run();

    ASSERT_TRUE(sr.sample.enabled);
    EXPECT_GE(sr.sample.intervals, 10);
    // Most of the budget was fast-forwarded, and the split accounts
    // for every instruction of the measurement phase.
    EXPECT_GT(sr.sample.functionalInstrs, sr.sample.detailedInstrs);
    EXPECT_EQ(sr.sample.functionalInstrs + sr.sample.detailedInstrs,
              sr.steady.core.totalRetired());
    EXPECT_EQ(sr.steady.fidelity.funcInstrs,
              sr.sample.functionalInstrs);

    expectWithin(fullCpi, sr.sample.cpi, 0.12 * fullCpi, "CPI");
    expectWithin(fm.userPct, sr.sample.userPct, 6.0, "user%");
    expectWithin(fm.kernelPct, sr.sample.kernelPct, 6.0, "kernel%");
    expectWithin(fm.palPct, sr.sample.palPct, 6.0, "pal%");
    expectWithin(fm.idlePct, sr.sample.idlePct, 6.0, "idle%");
}

} // namespace

// The headline accuracy claim: sampled CPI and kernel-mode breakdowns
// land within the reported confidence intervals (plus a small bias
// floor) of full-detail runs, on both workloads at 1/2/4/8 contexts.
TEST(Sampled, SpecIntWithinErrorBounds)
{
    const int widths[] = {1, 2, 4, 8};
    parallelFor(4, [&](std::size_t i) {
        sampledVsFull(WorkloadConfig::Kind::SpecInt, widths[i]);
    });
}

TEST(Sampled, ApacheWithinErrorBounds)
{
    const int widths[] = {1, 2, 4, 8};
    parallelFor(4, [&](std::size_t i) {
        sampledVsFull(WorkloadConfig::Kind::Apache, widths[i]);
    });
}

// --- parameter parsing and the CI arithmetic ---

TEST(SampleParams, FromStringParsesEveryKey)
{
    const SampleParams p = parseParams<SampleParams>(
        "period=100000,warm=5000,interval=4000,conf=0.99").value;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.periodInstrs, 100000u);
    EXPECT_EQ(p.warmInstrs, 5000u);
    EXPECT_EQ(p.intervalInstrs, 4000u);
    EXPECT_DOUBLE_EQ(p.confidence, 0.99);
}

TEST(SampleParams, FromStringDefaultsUnmentionedKeys)
{
    const SampleParams d;
    const SampleParams p = parseParams<SampleParams>("period=60000").value;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.periodInstrs, 60000u);
    EXPECT_EQ(p.warmInstrs, d.warmInstrs);
    EXPECT_EQ(p.intervalInstrs, d.intervalInstrs);
    EXPECT_DOUBLE_EQ(p.confidence, d.confidence);
}

TEST(SampleParams, ConfidenceZLadder)
{
    EXPECT_DOUBLE_EQ(confidenceZ(0.99), 2.576);
    EXPECT_DOUBLE_EQ(confidenceZ(0.95), 1.96);
    EXPECT_DOUBLE_EQ(confidenceZ(0.90), 1.645);
}

TEST(EnvOverrides, FidelityAndSampleFromLookup)
{
    std::map<std::string, std::string> env = {
        {"SMTOS_FIDELITY", "functional"},
        {"SMTOS_SAMPLE", "period=80000,interval=3000"},
    };
    const EnvOverrides ov =
        EnvOverrides::fromLookup([&](const char *name) {
            auto it = env.find(name);
            return it == env.end() ? nullptr : it->second.c_str();
        });
    EXPECT_EQ(ov.fidelity, Fidelity::Functional);
    ASSERT_TRUE(ov.sample.has_value());
    EXPECT_EQ(ov.sample->periodInstrs, 80000u);
    EXPECT_EQ(ov.sample->intervalInstrs, 3000u);

    env["SMTOS_FIDELITY"] = "detailed";
    const EnvOverrides ov2 =
        EnvOverrides::fromLookup([&](const char *name) {
            auto it = env.find(name);
            return it == env.end() ? nullptr : it->second.c_str();
        });
    EXPECT_EQ(ov2.fidelity, Fidelity::Detailed);
}

// --- fidelity state across snapshots ---

// A sampled session snapshotted at the measurement boundary resumes
// into a bit-identical sampled measurement: same steady deltas, same
// per-interval estimates.
TEST(SampleSnapshot, SampledSessionResumesBitIdentically)
{
    Session::Config cfg;
    cfg.workload.seed = 17;
    cfg.phases.startupInstrs = 30'000;
    cfg.phases.measureInstrs = 120'000;
    cfg.sample.enabled = true;
    cfg.sample.periodInstrs = 20'000;
    cfg.sample.warmInstrs = 2'000;
    cfg.sample.intervalInstrs = 2'000;

    Session a(cfg);
    a.runStartup();
    const std::vector<std::uint8_t> art = a.snapshot();
    const RunResult ra = a.runMeasurement();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    std::string err;
    auto b = Session::resume(art, opts, &err);
    ASSERT_TRUE(b) << err;
    EXPECT_TRUE(b->config().sample.enabled);
    EXPECT_EQ(b->config().sample.periodInstrs, 20'000u);
    const RunResult rb = b->runMeasurement();

    EXPECT_EQ(toJson(ra.steady), toJson(rb.steady));
    EXPECT_EQ(ra.sample.intervals, rb.sample.intervals);
    EXPECT_EQ(ra.sample.cpi.mean, rb.sample.cpi.mean);
    EXPECT_EQ(ra.sample.cpi.halfWidth, rb.sample.cpi.halfWidth);
    EXPECT_EQ(ra.sample.intervalCpi, rb.sample.intervalCpi);
    EXPECT_EQ(ra.sample.functionalInstrs, rb.sample.functionalInstrs);
}

// A functional-mode artifact carries its fidelity and counters; the
// resume-time override can force it back to detailed.
TEST(SampleSnapshot, FunctionalArtifactPreservesFidelity)
{
    Session::Config cfg;
    cfg.workload.seed = 23;
    cfg.fidelity = Fidelity::Functional;
    cfg.phases.startupInstrs = 50'000;
    cfg.phases.measureInstrs = 50'000;

    Session a(cfg);
    a.runStartup();
    const std::uint64_t fi = a.system().pipeline().fidelityStats().funcInstrs;
    EXPECT_GT(fi, 0u);
    const std::vector<std::uint8_t> art = a.snapshot();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    std::string err;
    auto b = Session::resume(art, opts, &err);
    ASSERT_TRUE(b) << err;
    EXPECT_EQ(b->config().fidelity, Fidelity::Functional);
    EXPECT_EQ(b->system().pipeline().fidelity(),
              Fidelity::Functional);
    EXPECT_EQ(b->system().pipeline().fidelityStats().funcInstrs, fi);
    // The resumed run keeps executing functionally.
    const RunResult rb = b->runMeasurement();
    EXPECT_GT(b->system().pipeline().fidelityStats().funcInstrs, fi);
    EXPECT_TRUE(rb.steady.fidelity.enabled());

    // Resume-time override: force the artifact back to detailed.
    opts.fidelity = Fidelity::Detailed;
    auto c = Session::resume(art, opts, &err);
    ASSERT_TRUE(c) << err;
    EXPECT_EQ(c->system().pipeline().fidelity(), Fidelity::Detailed);
    c->runMeasurement();
    EXPECT_EQ(c->system().pipeline().fidelityStats().funcInstrs, fi);
}

// A detailed start-up artifact resumes into a sampled measurement via
// the resume-time override (the fig_overload_knee pattern, applied to
// fidelity), and the skipped instructions stay oracle-checked.
TEST(SampleSnapshot, DetailedArtifactResumesIntoSampling)
{
    Session::Config cfg;
    cfg.workload.seed = 29;
    cfg.phases.startupInstrs = 30'000;
    cfg.phases.measureInstrs = 100'000;
    cfg.cosim = true;

    Session a(cfg);
    a.runStartup();
    const std::vector<std::uint8_t> art = a.snapshot();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    opts.cosim = true;
    SampleParams sp;
    sp.enabled = true;
    sp.periodInstrs = 20'000;
    sp.warmInstrs = 2'000;
    sp.intervalInstrs = 2'000;
    opts.sample = sp;
    std::string err;
    auto b = Session::resume(art, opts, &err);
    ASSERT_TRUE(b) << err;
    const RunResult rb = b->runMeasurement();
    EXPECT_TRUE(rb.sample.enabled);
    EXPECT_GT(rb.sample.intervals, 0);
    EXPECT_GT(rb.sample.functionalInstrs, 0u);
}
