/**
 * @file
 * Shared presets and helpers for the table/figure regeneration
 * benches. Every bench prints the paper's rows/series from a live
 * simulation; EXPERIMENTS.md records paper-vs-measured.
 *
 * Scale note: the paper simulated 0.65-1B+ instructions on SimOS; the
 * benches default to a few million (laptop scale), which preserves the
 * shape claims but not absolute magnitudes.
 */

#ifndef SMTOS_BENCH_COMMON_H
#define SMTOS_BENCH_COMMON_H

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/table.h"
#include "harness/parallel.h"
#include "harness/session.h"
#include "kernel/tags.h"

namespace smtos::bench {

/** SPECInt multiprogram on the 8-context SMT. */
inline Session::Config
specSmt()
{
    Session::Config c;
    c.workload.kind = WorkloadConfig::Kind::SpecInt;
    c.workload.spec.inputChunks = 48;
    c.phases.measureInstrs = 2'000'000;
    return c;
}

/** Apache under SPECWeb-like load on the 8-context SMT. */
inline Session::Config
apacheSmt()
{
    Session::Config c;
    c.workload.kind = WorkloadConfig::Kind::Apache;
    c.phases.startupInstrs = 2'000'000;
    c.phases.measureInstrs = 2'500'000;
    return c;
}

/** Superscalar variants (slower: shorter measurement). */
inline Session::Config
superscalar(Session::Config c)
{
    c.system.smt = false;
    c.phases.measureInstrs = 1'200'000;
    if (c.workload.kind == WorkloadConfig::Kind::Apache)
        c.phases.startupInstrs = 1'000'000;
    return c;
}

/** Build a Session for @p c and run both phases. */
inline RunResult
run(const Session::Config &c)
{
    return Session(c).run();
}

inline void
banner(const char *experiment, const char *paper_summary)
{
    std::printf("\n================================================"
                "=============\n");
    std::printf("smtos bench: %s\n", experiment);
    std::printf("paper reference: %s\n", paper_summary);
    std::printf("================================================"
                "=============\n");
}

/** Add a MissBreakdown's rows (user/kernel pair) to a table. */
inline void
missRows(TextTable &t, const char *structure, const MissBreakdown &b)
{
    auto pctOrDash = [](double v) { return TextTable::num(v, 1); };
    t.row({structure, "total miss rate", pctOrDash(b.totalMissRate[0]),
           pctOrDash(b.totalMissRate[1])});
    static const char *cause_names[numMissCauses] = {
        "compulsory", "intrathread", "interthread", "user-kernel",
        "invalidation by OS"};
    for (int k = 0; k < numMissCauses; ++k) {
        t.row({structure, cause_names[k],
               pctOrDash(b.causePct[0][k]),
               pctOrDash(b.causePct[1][k])});
    }
}

/**
 * Splice one labelled entry into BENCH_simspeed.json's "entries"
 * array, replacing any previous entry with the same label. The file
 * is our own flat format (see tools/simspeed_gate.py), so a textual
 * splice beats a parser: drop the old entry by brace counting, insert
 * before the final ']'. @p benchmarksJson is the body of the entry's
 * "benchmarks" object, indented eight spaces, newline-terminated. A
 * @p path of "-" skips the record.
 */
inline void
recordEntry(const std::string &path, const std::string &label,
            const std::string &benchmarksJson)
{
    if (path == "-")
        return;
    std::string text;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream ss;
            ss << in.rdbuf();
            text = ss.str();
        }
    }
    if (text.empty())
        text = "{\n  \"entries\": [\n  ]\n}\n";

    const std::string tag = "\"label\": \"" + label + "\"";
    std::size_t at = text.find(tag);
    if (at != std::string::npos) {
        std::size_t open = text.rfind('{', at);
        std::size_t close = open, depth = 0;
        for (std::size_t i = open; i < text.size(); ++i) {
            if (text[i] == '{')
                ++depth;
            else if (text[i] == '}' && --depth == 0) {
                close = i;
                break;
            }
        }
        // Also eat the separating comma, whichever side it is on, and
        // the line break and indent before the entry, so the splice
        // leaves no blank line behind.
        std::size_t from = text.find_last_not_of(" \n", open - 1);
        if (from != std::string::npos && text[from] == ',') {
            open = from;
        } else {
            open = from + 1;
            std::size_t next = text.find_first_not_of(" \n", close + 1);
            if (next != std::string::npos && text[next] == ',')
                close = next;
        }
        text.erase(open, close - open + 1);
    }

    std::size_t end = text.rfind(']');
    if (end == std::string::npos) {
        std::fprintf(stderr, "recordEntry: %s is not the expected "
                     "format; not recording\n", path.c_str());
        return;
    }
    // Append after the last entry (or the '['), before the line break
    // that precedes the ']'.
    std::size_t last = text.find_last_not_of(" \n", end - 1);
    const bool haveSibling = last != std::string::npos &&
                             text[last] == '}';
    const std::string entry = std::string(haveSibling ? "," : "") +
                              "\n    {\n      \"label\": \"" + label +
                              "\",\n      \"benchmarks\": {\n" +
                              benchmarksJson + "      }\n    }";
    text.insert(last + 1, entry);
    std::ofstream out(path);
    out << text;
}

} // namespace smtos::bench

#endif // SMTOS_BENCH_COMMON_H
