/**
 * @file
 * Configuration contract tests: the presets must match Table 1 of the
 * paper exactly, and the derived pipeline quantities must follow the
 * stated 9-stage (SMT) / 7-stage (superscalar) design. The SMTOS_*
 * grammars (common/params.h) must accept every configuration string
 * the repository documents, reject malformed values by name, and
 * survive seeded byte mutations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "bp/mcfarling.h"
#include "common/params.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "harness/env.h"
#include "harness/sample.h"
#include "kernel/admission.h"
#include "net/clients.h"
#include "sim/config.h"

using namespace smtos;

TEST(Table1, SmtCoreParameters)
{
    const MachineConfig c = smtConfig();
    EXPECT_EQ(c.core.numContexts, 8);
    EXPECT_EQ(c.core.fetchWidth, 8);      // 8 instructions per cycle
    EXPECT_EQ(c.core.fetchContexts, 2);   // the 2.8 ICOUNT scheme
    EXPECT_EQ(c.core.pipelineStages, 9);
    EXPECT_EQ(c.core.intUnits, 6);        // 6 integer units
    EXPECT_EQ(c.core.memUnits, 4);        // of which 4 load/store
    EXPECT_EQ(c.core.fpUnits, 4);
    EXPECT_EQ(c.core.intQueue, 32);       // 32-entry queues
    EXPECT_EQ(c.core.fpQueue, 32);
    EXPECT_EQ(c.core.intRenameRegs, 100); // 100 renaming registers
    EXPECT_EQ(c.core.fpRenameRegs, 100);
    EXPECT_EQ(c.core.retireWidth, 12);    // 12 instructions/cycle
    EXPECT_EQ(c.core.itlbEntries, 128);   // 128-entry TLBs
    EXPECT_EQ(c.core.dtlbEntries, 128);
    EXPECT_EQ(c.core.dcachePorts, 2);     // dual-ported D-cache
}

TEST(Table1, MemoryHierarchy)
{
    const MachineConfig c = smtConfig();
    EXPECT_EQ(c.mem.l1i.sizeBytes, 128u * 1024);
    EXPECT_EQ(c.mem.l1i.assoc, 2);
    EXPECT_EQ(c.mem.l1d.sizeBytes, 128u * 1024);
    EXPECT_EQ(c.mem.l1d.assoc, 2);
    EXPECT_EQ(c.mem.l2.sizeBytes, 16u * 1024 * 1024);
    EXPECT_EQ(c.mem.l2.assoc, 1); // direct mapped
    EXPECT_EQ(c.mem.l1i.lineBytes, 64);
    EXPECT_EQ(c.mem.l2Latency, 20u);
    EXPECT_EQ(c.mem.l1FillPenalty, 2u);
    EXPECT_EQ(c.mem.l1MshrEntries, 32);
    EXPECT_EQ(c.mem.l2MshrEntries, 32);
    EXPECT_EQ(c.mem.storeBufferEntries, 32);
    EXPECT_EQ(c.mem.l1l2BusBytesPerCycle, 32); // 256 bits
    EXPECT_EQ(c.mem.l1l2BusLatency, 2u);
    EXPECT_EQ(c.mem.memBusBytesPerCycle, 16);  // 128 bits
    EXPECT_EQ(c.mem.memBusLatency, 4u);
    EXPECT_EQ(defaultMemLatency, 90u);
}

TEST(Table1, BankedDramDefaultsOffAndFlatEquivalent)
{
    const MachineConfig c = smtConfig();
    // Banked DRAM is opt-in: the preset stays the paper's flat
    // 90-cycle memory.
    EXPECT_FALSE(c.mem.dram.banked);
    const DramParams d;
    EXPECT_EQ(d.channels, 2);
    EXPECT_EQ(d.ranks, 2);
    EXPECT_EQ(d.banksPerRank, 8);
    EXPECT_EQ(d.rowBytes, 2048);
    EXPECT_EQ(d.burstBytes, 64);
    EXPECT_EQ(d.queueDepth, 16);
    EXPECT_FALSE(d.closedPage);
    // Timing is anchored to the flat model: a row conflict
    // (tRP+tRCD+tCAS+tBurst) costs exactly the Table-1 latency.
    EXPECT_EQ(d.tRp + d.tRcd + d.tCas + d.tBurst, defaultMemLatency);
}

TEST(Table1, BranchHardwareDefaults)
{
    McFarlingParams p;
    EXPECT_EQ(p.localHistEntries, 2048); // 2K-entry history table
    EXPECT_EQ(p.localPredEntries, 4096); // 4K-entry prediction table
    EXPECT_EQ(p.globalEntries, 8192);    // 8K entries
    EXPECT_EQ(p.chooserEntries, 8192);   // 8K-entry selection table
}

TEST(Superscalar, DiffersOnlyWhereThePaperSays)
{
    const MachineConfig smt = smtConfig();
    const MachineConfig ss = superscalarConfig();
    EXPECT_EQ(ss.core.numContexts, 1);
    EXPECT_EQ(ss.core.pipelineStages, 7); // 2 fewer stages
    // Everything else identical.
    EXPECT_EQ(ss.core.intUnits, smt.core.intUnits);
    EXPECT_EQ(ss.core.intQueue, smt.core.intQueue);
    EXPECT_EQ(ss.core.intRenameRegs, smt.core.intRenameRegs);
    EXPECT_EQ(ss.core.retireWidth, smt.core.retireWidth);
    EXPECT_EQ(ss.mem.l1d.sizeBytes, smt.mem.l1d.sizeBytes);
    EXPECT_EQ(ss.mem.l2.sizeBytes, smt.mem.l2.sizeBytes);
}

TEST(DerivedTiming, FrontEndDepths)
{
    CoreParams nine;
    nine.pipelineStages = 9;
    CoreParams seven;
    seven.pipelineStages = 7;
    EXPECT_EQ(nine.issueDelay(), 4u);
    EXPECT_EQ(seven.issueDelay(), 2u);
    EXPECT_EQ(nine.redirectPenalty(), seven.redirectPenalty() + 2);
}

TEST(KernelDefaults, PaperFaithfulKnobs)
{
    Kernel::Params p;
    EXPECT_FALSE(p.appOnly);
    EXPECT_FALSE(p.sharedTlbIpr);   // paper's modified OS by default
    EXPECT_EQ(p.numNetisr, 2);      // netisr thread pool
    EXPECT_GT(p.maxAsn, 64);        // ASNs outnumber server processes
}

// --- the SMTOS_* key=value grammars ---

namespace {

enum class Grammar { Faults, OpenLoop, Admit, Sample };

struct GrammarString
{
    Grammar grammar;
    const char *spec;
};

/** Every grammar string in the repository: the parser tests, README,
 *  EXPERIMENTS, DESIGN and CI (placeholders such as "rate=..."
 *  excluded). */
const GrammarString repoStrings[] = {
    {Grammar::Faults, "seed=42,loss=0.01,reorder=0.25,delay=5:20,"
                      "nicdrop=0.5,mce=10000,mceretry=5,"
                      "breakrecovery=1,conntable=64,backlog=8,"
                      "audit=5000"},
    {Grammar::Faults, ""},
    {Grammar::Faults, "delay=7"},
    {Grammar::Faults, "loss=0.125,mce=4096"},
    {Grammar::Faults, "loss=0.01,mce=40000"},
    {Grammar::Faults, "conntable=4,backlog=1"},
    {Grammar::Faults, "loss=0.01,mce=25000,audit=5000"},
    {Grammar::Faults, "loss=0.01,delay=5:40,mce=25000,audit=5000"},
    {Grammar::OpenLoop, "rate=4.5,kind=bursty,burstfactor=3,"
                        "burstduty=0.5,burstperiod=100000,slowpct=0.25,"
                        "slowdrain=2000,keepalive=0.1,retry=90000,"
                        "maxretries=3,seed=42"},
    {Grammar::OpenLoop, "rate=2.0"},
    {Grammar::OpenLoop, "rate=4"},
    {Grammar::OpenLoop, "rate=20,retry=600000,maxretries=1"},
    {Grammar::Admit, "policy=oldest,cap=32,deadline=120000,seed=7,"
                     "mbufacct=1"},
    {Grammar::Admit, "policy=red,cap=64,redmin=16,redmaxp=0.5"},
    {Grammar::Admit, "policy=droptail,cap=24"},
    {Grammar::Admit, "policy=oldest,cap=16,deadline=400000,mbufacct=1"},
    {Grammar::Sample, "period=100000,warm=5000,interval=4000,conf=0.99"},
    {Grammar::Sample, "period=60000"},
    {Grammar::Sample, "period=80000,interval=3000"},
    {Grammar::Sample, "period=20000,warm=2000,interval=2000"},
    {Grammar::Sample, "period=20000,warm=3000,interval=2000,conf=0.95"},
};

/** A parse's error (empty: accepted) and whether check() holds on the
 *  returned struct. */
struct Outcome
{
    std::string error;
    bool checks = false;
};

template <typename P>
Outcome
outcome(std::string_view spec)
{
    const Parsed<P> r = parseParams<P>(spec);
    return {r.error, r.value.check().empty()};
}

Outcome
parse(Grammar g, std::string_view spec)
{
    switch (g) {
      case Grammar::Faults:   return outcome<FaultParams>(spec);
      case Grammar::OpenLoop: return outcome<OpenLoopParams>(spec);
      case Grammar::Admit:    return outcome<AdmitParams>(spec);
      case Grammar::Sample:   return outcome<SampleParams>(spec);
    }
    return {};
}

} // namespace

TEST(ConfigGrammar, RejectsMalformedValues)
{
    struct Case
    {
        Grammar grammar;
        const char *spec;
        const char *key; ///< the error must name it
    };
    const Case cases[] = {
        {Grammar::Admit, "cap=4294967297", "cap"},
        {Grammar::OpenLoop, "rate=1,maxretries=4294967296", "maxretries"},
        {Grammar::Faults, "mceretry=2147483648", "mceretry"},
        {Grammar::Faults, "seed=18446744073709551616", "seed"},
        {Grammar::OpenLoop, "rate=nan", "rate"},
        {Grammar::OpenLoop, "rate=inf", "rate"},
        {Grammar::OpenLoop, "rate=1e999", "rate"},
        {Grammar::Admit, "redmaxp=nan", "redmaxp"},
        {Grammar::Sample, "conf=nan", "conf"},
        {Grammar::Faults, "loss=-0.5", "loss"},
        {Grammar::Faults, "loss=+0.5", "loss"},
        {Grammar::Faults, "loss=0x1p-3", "loss"},
        {Grammar::Faults, "seed=-1", "seed"},
        {Grammar::Faults, "seed= 5", "seed"},
        {Grammar::Faults, "seed=0x", "seed"},
        {Grammar::Faults, "audit=12abc", "audit"},
        {Grammar::Faults, "conntable=-1", "conntable"},
        {Grammar::Faults, "breakrecovery=2", "breakrecovery"},
        {Grammar::Admit, "mbufacct=yes", "mbufacct"},
        {Grammar::Faults, "delay=20:5", "delay"},
        {Grammar::Faults, "delay=1:2:3", "delay"},
        {Grammar::Faults, "delay=:5", "delay"},
        {Grammar::Faults, "loss", "loss"},
        {Grammar::Faults, "lost=0.1", "lost"},
        {Grammar::Admit, "policy=fifo", "policy"},
        {Grammar::Admit, "policy=droptail", "cap"},
        {Grammar::Admit, "policy=red,cap=4,redmin=8", "redmin"},
        {Grammar::Admit, "policy=oldest,cap=4", "deadline"},
        {Grammar::OpenLoop, "kind=ramp", "rate"},
        {Grammar::OpenLoop, "rate=1,kind=uniform", "kind"},
        {Grammar::Sample, "interval=0", "interval"},
        {Grammar::Sample, "period=4000,warm=3000", "period"},
        {Grammar::Sample, "warm=18446744073709551615,interval=2", "period"},
        {Grammar::Sample, "period=", "period"},
        {Grammar::Sample, "conf=1", "conf"},
    };
    for (const Case &c : cases) {
        const std::string error = parse(c.grammar, c.spec).error;
        EXPECT_NE(error.find(c.key), std::string::npos)
            << c.spec << " -> '" << error << "'";
    }

    // The one-value variables share the value rules; EnvOverrides
    // turns a malformed value into exit 1 naming the variable.
    const std::pair<const char *, const char *> scalars[] = {
        {"SMTOS_CORES", "4abc"},   {"SMTOS_CORES", "0"},
        {"SMTOS_JOBS", "abc"},     {"SMTOS_JOBS", "-2"},
        {"SMTOS_INTERVAL", "-1"},  {"SMTOS_INTERVAL", "abc"},
        {"SMTOS_FIDELITY", "fast"},
    };
    for (const auto &var : scalars) {
        EXPECT_EXIT(EnvOverrides::fromLookup(
                        [&var](const char *name) -> const char * {
                            return std::strcmp(name, var.first) == 0
                                       ? var.second
                                       : nullptr;
                        }),
                    testing::ExitedWithCode(1), var.first)
            << var.first << "=" << var.second;
    }
}

// Every repository string parses. Seeded byte edits of each, biased
// toward the grammar's punctuation, are rejected with a message or
// parse into a struct whose check() holds, and none may crash (CI
// also runs this under ASan/UBSan).
TEST(ConfigGrammar, SeededMutationsParseOrReject)
{
    for (const GrammarString &s : repoStrings)
        ASSERT_EQ(parse(s.grammar, s.spec).error, "") << s.spec;

    const char *const tokens[] = {"=", ",", ":", ".", "-", "0x", "nan"};
    Rng rng(0x9a11a5);
    int accepted = 0, rejected = 0;
    for (int round = 0; round < 100; ++round) {
        for (const GrammarString &base : repoStrings) {
            std::string s = base.spec;
            const int edits = 1 + static_cast<int>(rng.below(3));
            for (int e = 0; e < edits; ++e) {
                // Half punctuation tokens, a quarter digits, a quarter
                // arbitrary bytes.
                std::string piece(1, static_cast<char>(rng.below(256)));
                const std::uint64_t kind = rng.below(4);
                if (kind < 2)
                    piece = tokens[rng.below(std::size(tokens))];
                else if (kind == 2)
                    piece[0] = static_cast<char>('0' + rng.below(10));
                const std::uint64_t op = s.empty() ? 1 : rng.below(3);
                if (op == 0)
                    s.replace(rng.below(s.size()), 1, piece);
                else if (op == 1)
                    s.insert(rng.below(s.size() + 1), piece);
                else
                    s.erase(rng.below(s.size()), 1);
            }
            const Outcome o = parse(base.grammar, s);
            if (o.error.empty()) {
                ++accepted;
                EXPECT_TRUE(o.checks) << "'" << s << "'";
            } else {
                ++rejected;
            }
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}
