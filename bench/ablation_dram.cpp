/**
 * @file
 * Ablation: banked DRAM behind the L2 — what the flat 90-cycle model
 * hides. Part A drives the MemCtrl directly with synthetic access
 * streams (sequential streaming, dependent pointer-chasing, aligned
 * multi-stream interference) swept over page policy and bank count,
 * showing the row-buffer locality / bank-parallelism tradeoff in
 * closed form. Part B runs SpecInt on the full system across context
 * counts via the SweepGroup engine, with open- vs closed-page resumed
 * from one shared start-up snapshot per count — multi-context
 * interference as the workload actually delivers it.
 *
 * Appends a representative point to BENCH_simspeed.json (argv[1],
 * default "BENCH_simspeed.json"; "-" skips the record).
 */

#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "mem/memctrl.h"
#include "sim/metrics.h"

using namespace smtos;
using namespace smtos::bench;

namespace {

constexpr int bankCounts[] = {1, 4, 16};
constexpr int accessesPerPattern = 4096;

DramParams
geom(int banks, bool closedPage)
{
    DramParams p;
    p.banked = true;
    // One channel, one rank: the bank count is the whole sweep axis
    // and the data-bus ceiling stays fixed at burstBytes/tBurst.
    p.channels = 1;
    p.ranks = 1;
    p.banksPerRank = banks;
    p.closedPage = closedPage;
    return p;
}

struct PatternResult
{
    DramStats stats;
    Cycle span = 0; ///< first arrival (0) to last data-burst finish
};

/**
 * Issue accesses as fast as the burst slots allow while keeping at
 * most 16 outstanding (an L2-MSHR-like window), so the bandwidth
 * patterns saturate the controller without the open-loop queue wait
 * swamping the latency figure.
 */
template <typename AddrOf>
PatternResult
runWindowed(const DramParams &p, AddrOf addrOf)
{
    MemCtrl mc(p);
    const AccessInfo who{};
    constexpr int window = 16;
    Cycle done[window] = {};
    Cycle arrival = 0, last = 0;
    for (int i = 0; i < accessesPerPattern; ++i) {
        arrival = std::max(
            {arrival, static_cast<Cycle>(i) * p.tBurst,
             done[i % window]});
        const Cycle finish = mc.access(addrOf(i), who, arrival);
        done[i % window] = finish;
        last = std::max(last, finish);
    }
    return {mc.stats(), last};
}

/** Sequential lines: bandwidth-bound, row-buffer friendly. */
PatternResult
runStreaming(int banks, bool closedPage)
{
    const DramParams p = geom(banks, closedPage);
    return runWindowed(p, [&p](int i) {
        return static_cast<Addr>(i) * p.burstBytes;
    });
}

/** Dependent LCG chain over an 8 MiB set: latency-bound. */
PatternResult
runPointerChase(int banks, bool closedPage)
{
    const DramParams p = geom(banks, closedPage);
    MemCtrl mc(p);
    const AccessInfo who{};
    const std::uint64_t lines = 8u * 1024 * 1024 / p.burstBytes;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    Cycle now = 0;
    for (int i = 0; i < accessesPerPattern; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr a =
            static_cast<Addr>((x >> 16) % lines) * p.burstBytes;
        now = mc.access(a, who, now);
    }
    return {mc.stats(), now};
}

/**
 * Four row-aligned sequential streams, round-robin: every stream
 * wants the same bank sequence under a different row, the worst case
 * for an open-page policy.
 */
PatternResult
runInterference(int banks, bool closedPage)
{
    const DramParams p = geom(banks, closedPage);
    return runWindowed(p, [&p](int i) {
        const Addr base = static_cast<Addr>(i % 4) << 20;
        return base + static_cast<Addr>(i / 4) * p.burstBytes;
    });
}

double
bytesPerCycle(const PatternResult &r)
{
    return r.span == 0
               ? 0.0
               : static_cast<double>(r.stats.accesses * 64) /
                     static_cast<double>(r.span);
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

// ---- Part B: SpecInt multi-context interference via SweepGroup ----

constexpr int counts[] = {1, 2, 4, 8};

Session::Config
baseFor(int n)
{
    Session::Config s = specSmt();
    s.system.topology.contextsPerCore = n;
    s.system.dram.banked = true; // Table-1 geometry, open page
    s.phases.measureInstrs = 600'000;
    return s;
}

void
record(const std::string &path, const PatternResult &stream,
       const PatternResult &chase, const DramStats &open8,
       const DramStats &closed8)
{
    char body[512];
    std::snprintf(body, sizeof body,
                  "        \"ablation_dram\": {\n"
                  "          \"stream_open16_bytes_per_cycle\": %.2f,\n"
                  "          \"stream_open16_row_hit_pct\": %.1f,\n"
                  "          \"chase_open16_avg_latency\": %.1f,\n"
                  "          \"spec8_open_avg_latency\": %.1f,\n"
                  "          \"spec8_closed_avg_latency\": %.1f\n"
                  "        }\n",
                  bytesPerCycle(stream),
                  pct(stream.stats.rowHits, stream.stats.accesses),
                  chase.stats.avgLatency(), open8.avgLatency(),
                  closed8.avgLatency());
    recordEntry(path, "dram-ablation", body);
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Ablation: banked DRAM (page policy x bank count)",
           "the flat 90-cycle memory hides row-buffer locality, "
           "bank parallelism, and inter-context interference");

    struct Pattern
    {
        const char *name;
        PatternResult (*run)(int, bool);
    };
    const Pattern patterns[] = {{"streaming", runStreaming},
                                {"pointer-chase", runPointerChase},
                                {"interference", runInterference}};

    PatternResult stream16, chase16;
    TextTable a("Synthetic streams on one channel (4096 lines each)");
    a.header({"pattern", "policy", "banks", "hit %", "confl %",
              "avg lat", "B/cyc"});
    for (const Pattern &pat : patterns) {
        for (bool closedPage : {false, true}) {
            for (int banks : bankCounts) {
                const PatternResult r = pat.run(banks, closedPage);
                const DramStats &s = r.stats;
                a.row({pat.name, closedPage ? "closed" : "open",
                       TextTable::num(
                           static_cast<std::uint64_t>(banks)),
                       TextTable::num(pct(s.rowHits, s.accesses), 1),
                       TextTable::num(pct(s.rowConflicts, s.accesses),
                                      1),
                       TextTable::num(s.avgLatency(), 1),
                       TextTable::num(bytesPerCycle(r), 2)});
                if (!closedPage && banks == 16) {
                    if (pat.run == runStreaming)
                        stream16 = r;
                    else if (pat.run == runPointerChase)
                        chase16 = r;
                }
            }
        }
    }
    a.print();

    // Part B: one group per context count; the open- and closed-page
    // points resume from the group's shared start-up artifact, so the
    // policy flip is the only difference between them.
    std::vector<SweepGroup> groups;
    for (int n : counts) {
        SweepGroup g;
        g.base = baseFor(n);
        SweepPoint open;
        open.label = "ctx" + std::to_string(n) + "/open";
        open.opts.phases = g.base.phases;
        SweepPoint closed;
        closed.label = "ctx" + std::to_string(n) + "/closed";
        closed.opts.phases = g.base.phases;
        closed.opts.dramClosedPage = true;
        g.points = {open, closed};
        groups.push_back(g);
    }
    const std::vector<std::vector<RunResult>> swept =
        runSweepGroups(groups);

    TextTable b("SpecInt, Table-1 geometry: open vs closed page");
    b.header({"contexts", "IPC", "hit %", "confl %", "open lat",
              "closed lat", "q-stalls"});
    for (std::size_t i = 0; i < swept.size(); ++i) {
        const DramStats &o = swept[i][0].steady.dram;
        const DramStats &c = swept[i][1].steady.dram;
        const ArchMetrics m = archMetrics(swept[i][0].steady);
        b.row({TextTable::num(static_cast<std::uint64_t>(counts[i])),
               TextTable::num(m.ipc, 2),
               TextTable::num(pct(o.rowHits, o.accesses), 1),
               TextTable::num(pct(o.rowConflicts, o.accesses), 1),
               TextTable::num(o.avgLatency(), 1),
               TextTable::num(c.avgLatency(), 1),
               TextTable::num(o.queueFullStalls)});
    }
    b.print();

    const DramStats &open8 = swept.back()[0].steady.dram;
    const DramStats &closed8 = swept.back()[1].steady.dram;
    std::printf("\n8-context interference: open-page avg %.1f cyc "
                "(%.1f%% conflicts), closed-page avg %.1f cyc\n",
                open8.avgLatency(),
                pct(open8.rowConflicts, open8.accesses),
                closed8.avgLatency());

    record(argc > 1 ? argv[1] : "BENCH_simspeed.json", stream16,
           chase16, open8, closed8);
    return 0;
}
