/**
 * @file
 * Lockstep reference-model validation: the timing pipeline's retired
 * stream must match the functional RefCore oracle instruction for
 * instruction across fuzzed programs and context widths; an injected
 * wrong result must be caught; and identical (seed, config) runs must
 * export bit-identical metrics, whole-run or pause/resumed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cosim.h"
#include "harness/parallel.h"
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
fuzzConfig(int contexts, bool banked = false)
{
    MachineConfig cfg = smtConfig();
    cfg.core.numContexts = contexts;
    cfg.core.fetchContexts = contexts >= 2 ? 2 : 1;
    // Short quantum so short runs still exercise timer interrupts,
    // preemption, and context-switch state syncs.
    cfg.kernel.timerQuantum = 6000;
    // Banked DRAM on a deliberately small geometry, so row conflicts
    // and queue backpressure reshape miss timing under the oracle.
    if (banked) {
        cfg.mem.dram.banked = true;
        cfg.mem.dram.channels = 1;
        cfg.mem.dram.banksPerRank = 4;
        cfg.mem.dram.queueDepth = 4;
    }
    return cfg;
}

/** One fuzzed co-simulated run; returns instructions verified. */
std::uint64_t
runFuzzCosim(std::uint64_t seed, int contexts, Cycle cycles,
             std::uint64_t inject_at = 0, std::string *report = nullptr,
             bool banked = false)
{
    MachineConfig cfg = fuzzConfig(contexts, banked);
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
    sys.runCycles(cycles);

    if (report)
        *report = cosim.report();
    if (inject_at) {
        EXPECT_TRUE(cosim.diverged())
            << "seed " << seed << ": injected fault not caught";
    } else {
        EXPECT_FALSE(cosim.diverged())
            << "seed " << seed << ", " << contexts
            << " contexts:\n" << cosim.report();
        EXPECT_GT(cosim.syncs(), 0u);
    }
    return cosim.checked();
}

} // namespace

// The tentpole acceptance loop: >= 50 fuzzed seeds spread across
// 1/2/4/8-context configurations, zero divergences.
TEST(CosimFuzz, NoDivergenceAcrossSeedsAndWidths)
{
    const int widths[] = {1, 2, 4, 8};
    constexpr int perWidth = 13;
    constexpr int runs = 4 * perWidth;
    // Each (seed, width) run is an independent system; fan the 52
    // runs out on the harness worker pool (gtest assertions are
    // thread-safe on pthread platforms).
    std::atomic<std::uint64_t> total_checked{0};
    parallelFor(runs, [&](std::size_t i) {
        const int w = widths[i / perWidth];
        const std::uint64_t seed = 1 + i;
        total_checked += runFuzzCosim(seed, w, 25000);
    });
    // Every run must actually have verified a substantial stream.
    EXPECT_GT(total_checked.load(), 52u * 5000u);
}

// The same 52-seed sweep with banked DRAM: timing changes (row
// conflicts, FR-FCFS reordering, queue backpressure) must never
// change what retires — the oracle is timing-blind and stays clean.
TEST(CosimFuzz, NoDivergenceWithBankedDram)
{
    const int widths[] = {1, 2, 4, 8};
    constexpr int perWidth = 13;
    constexpr int runs = 4 * perWidth;
    std::atomic<std::uint64_t> total_checked{0};
    parallelFor(runs, [&](std::size_t i) {
        const int w = widths[i / perWidth];
        const std::uint64_t seed = 1 + i;
        total_checked +=
            runFuzzCosim(seed, w, 20000, 0, nullptr, true);
    });
    EXPECT_GT(total_checked.load(), 52u * 4000u);
}

// The oracle also holds on the paper's real workload models, which
// reach kernel paths the fuzzer cannot (network interrupts, netisr
// kernel threads, blocking syscalls).
TEST(Cosim, SpecIntWorkloadMatchesReference)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 7;
    System sys(cfg);
    SpecIntParams p;
    p.inputChunks = 24;
    SpecIntWorkload w = buildSpecInt(p);
    installSpecInt(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(120000);
    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 50000u);
}

TEST(Cosim, ApacheWorkloadMatchesReference)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    System sys(cfg);
    ApacheParams p;
    ApacheWorkload w = buildApache(p);
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(120000);
    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 50000u);
}

// A deliberately wrong retirement record (test-only hook: the 4000th
// retired instruction's PC is misreported) must be caught at exactly
// that instruction, with a report naming pc, context, and the
// disassembled instruction.
TEST(Cosim, InjectedFaultIsCaughtWithDiagnosis)
{
    std::string report;
    const std::uint64_t checked =
        runFuzzCosim(3, 4, 30000, 4000, &report);
    // Everything before the corrupted retirement verified clean.
    EXPECT_EQ(checked, 3999u);
    EXPECT_NE(report.find("cosim divergence"), std::string::npos)
        << report;
    EXPECT_NE(report.find("pc: got"), std::string::npos) << report;
    EXPECT_NE(report.find("ctx"), std::string::npos) << report;
    // The disassembled window is present.
    EXPECT_NE(report.find("retirements of this thread"),
              std::string::npos)
        << report;
}

namespace {

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

/** Build + run a fuzz system for @p total cycles in @p chunks legs. */
std::string
chunkedFuzzRun(std::uint64_t seed, Cycle total, int chunks)
{
    MachineConfig cfg = fuzzConfig(4);
    cfg.kernel.seed = seed;
    std::vector<FuzzedProgram> progs;
    System sys(cfg);
    for (int i = 0; i < 5; ++i) {
        progs.push_back(fuzzProgram(mixHash(seed, 77u + i)));
        installFuzzedProc(sys.kernel(), progs.back(), i);
    }
    sys.start();
    const Cycle leg = total / chunks;
    for (int i = 0; i < chunks - 1; ++i)
        sys.runCycles(leg);
    sys.runCycles(total - leg * (chunks - 1));
    return exportAll(sys);
}

} // namespace

// Two runs with identical seed and configuration produce bit-identical
// metric exports.
TEST(CosimDeterminism, IdenticalRunsExportIdenticalMetrics)
{
    const std::string a = chunkedFuzzRun(42, 50000, 1);
    const std::string b = chunkedFuzzRun(42, 50000, 1);
    EXPECT_EQ(a, b);
    // And a different seed actually changes the export (the check
    // above is not vacuous).
    const std::string c = chunkedFuzzRun(43, 50000, 1);
    EXPECT_NE(a, c);
}

// Pausing and resuming through System::runCycles is invisible: one
// 50k-cycle leg and five 10k-cycle legs retire the same history.
TEST(CosimDeterminism, PauseResumeReplayIsBitIdentical)
{
    const std::string whole = chunkedFuzzRun(42, 50000, 1);
    const std::string split = chunkedFuzzRun(42, 50000, 5);
    EXPECT_EQ(whole, split);
}

// The co-simulated SpecInt run retires kernel, PAL, user, and idle
// instructions — the oracle is exercised in every privilege mode.
TEST(Cosim, OracleCoversAllModes)
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
    sys.runCycles(120000);
    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    const CoreStats &cs = sys.pipeline().stats();
    EXPECT_GT(cs.retired[static_cast<int>(Mode::User)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Kernel)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Pal)], 0u);
    EXPECT_GT(cs.retired[static_cast<int>(Mode::Idle)], 0u);
}
