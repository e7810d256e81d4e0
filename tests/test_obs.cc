/**
 * @file
 * Observability-layer properties: the cycle-attribution sum invariant
 * must hold exactly, every artifact (report, interval JSONL/CSV,
 * trace.json) must be bit-identical across same-seed runs, the
 * timeline must be schema-valid (alphabetically sorted keys, monotone
 * timestamps, balanced JSON), and attaching probes must not perturb
 * the simulation (identical MetricsSnapshot with probes on and off).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/session.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "obs/timeline.h"
#include "sim/export.h"

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
               ("smtos_obs_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

ObsConfig
allSinks(const fs::path &dir)
{
    ObsConfig oc;
    oc.profile = true;
    oc.reportPath = (dir / "report.txt").string();
    oc.intervalCycles = 10'000;
    oc.intervalJsonlPath = (dir / "interval.jsonl").string();
    oc.intervalCsvPath = (dir / "interval.csv").string();
    oc.timelinePath = (dir / "trace.json").string();
    return oc;
}

Session::Config
shortApache()
{
    Session::Config s;
    s.workload.kind = WorkloadConfig::Kind::Apache;
    s.phases.startupInstrs = 100'000;
    s.phases.measureInstrs = 150'000;
    return s;
}

/** Keys of one serialized event object, in order of appearance. */
std::vector<std::string>
eventKeys(const std::string &obj)
{
    std::vector<std::string> keys;
    int depth = 0;
    for (size_t i = 0; i < obj.size(); ++i) {
        const char c = obj[i];
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
        } else if (c == '"' && depth == 1) {
            const size_t end = obj.find('"', i + 1);
            if (end == std::string::npos)
                break;
            const std::string tok = obj.substr(i + 1, end - i - 1);
            // A key at depth 1 is followed by ':'.
            if (end + 1 < obj.size() && obj[end + 1] == ':')
                keys.push_back(tok);
            i = end;
            // Skip the value; nested objects bump depth themselves,
            // string values are consumed on the next '"' pass.
        }
    }
    return keys;
}

} // namespace

TEST(ObsProfiler, FetchAndIssueSumInvariantsExact)
{
    TempDir dir("sum");
    ObsConfig oc;
    oc.profile = true;
    oc.reportPath = (dir.path / "report.txt").string();
    ObsSession obs(oc);

    Session::Config spec = shortApache();
    spec.obs = &obs;
    Session(spec).run();

    const CycleProfiler &p = *obs.profiler();
    ASSERT_GT(p.cycles(), 0u);
    EXPECT_EQ(p.fetchSlotsUsed() + p.fetchSlotsLost(),
              p.fetchSlotsTotal());
    EXPECT_EQ(p.issueSlotsUsed() + p.issueSlotsLost(),
              p.issueSlotsTotal());

    // Per-context and per-tag breakdowns partition the lost total.
    std::uint64_t by_ctx = 0;
    for (CtxId c = 0; c < 8; ++c)
        by_ctx += p.fetchSlotsLostByCtx(c);
    EXPECT_EQ(by_ctx, p.fetchSlotsLost());
}

TEST(ObsProfiler, ProbesDoNotPerturbTheSimulation)
{
    Session::Config plain = shortApache();
    RunResult r_plain = Session(plain).run();

    // Profiler + timeline only: interval sampling is excluded because
    // it legitimately changes the measurement *stepping* (cycle-driven
    // loop instead of one run(measureInstrs) call), which moves the
    // stopping point. The probes themselves must not move anything.
    TempDir dir("parity");
    ObsConfig oc = allSinks(dir.path);
    oc.intervalCycles = 0;
    oc.timelineDetail = true;
    ObsSession obs(oc);
    Session::Config probed = shortApache();
    probed.obs = &obs;
    RunResult r_probed = Session(probed).run();

    EXPECT_EQ(r_plain.cycles, r_probed.cycles);
    EXPECT_EQ(toJson(r_plain.steady), toJson(r_probed.steady));
    EXPECT_EQ(toJson(r_plain.startup), toJson(r_probed.startup));
}

TEST(ObsArtifacts, DeterministicAcrossSameSeedRuns)
{
    TempDir d1("det1");
    TempDir d2("det2");
    for (const TempDir *d : {&d1, &d2}) {
        ObsSession obs(allSinks(d->path));
        Session::Config spec = shortApache();
        spec.obs = &obs;
        Session(spec).run();
    }
    for (const char *name :
         {"report.txt", "interval.jsonl", "interval.csv",
          "trace.json"}) {
        const std::string a = readFile(d1.path / name);
        const std::string b = readFile(d2.path / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, b) << name << " differs across same-seed runs";
    }
}

TEST(ObsArtifacts, IntervalRowsAreWellFormed)
{
    TempDir dir("interval");
    {
        ObsSession obs(allSinks(dir.path));
        Session::Config spec = shortApache();
        spec.obs = &obs;
        Session(spec).run();
    }

    const std::string jsonl = readFile(dir.path / "interval.jsonl");
    std::istringstream in(jsonl);
    std::string line;
    int rows = 0;
    std::int64_t prev_end = -1;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        const std::string idx = "\"interval\":" + std::to_string(rows);
        EXPECT_NE(line.find(idx), std::string::npos) << line;
        // Intervals tile the run: start where the previous ended.
        const size_t cs = line.find("\"cycle_start\":");
        const size_t ce = line.find("\"cycle_end\":");
        ASSERT_NE(cs, std::string::npos);
        ASSERT_NE(ce, std::string::npos);
        const std::int64_t c0 = std::stoll(line.substr(cs + 14));
        const std::int64_t c1 = std::stoll(line.substr(ce + 12));
        if (prev_end >= 0) {
            EXPECT_EQ(c0, prev_end);
        }
        EXPECT_GT(c1, c0);
        prev_end = c1;
        ++rows;
    }
    EXPECT_GE(rows, 2);

    // CSV: header plus one line per JSONL row, same column count each.
    const std::string csv = readFile(dir.path / "interval.csv");
    std::istringstream cin(csv);
    int csv_rows = 0;
    size_t cols = 0;
    while (std::getline(cin, line)) {
        const size_t n =
            static_cast<size_t>(
                std::count(line.begin(), line.end(), ',')) +
            1;
        if (csv_rows == 0)
            cols = n;
        else
            EXPECT_EQ(n, cols) << "ragged CSV row " << csv_rows;
        ++csv_rows;
    }
    EXPECT_EQ(csv_rows, rows + 1);
}

TEST(ObsTimeline, TraceJsonIsSchemaValid)
{
    TempDir dir("trace");
    {
        ObsSession obs(allSinks(dir.path));
        Session::Config spec = shortApache();
        spec.obs = &obs;
        Session(spec).run();
    }
    const std::string trace = readFile(dir.path / "trace.json");
    ASSERT_EQ(trace.rfind("{\"displayTimeUnit\":\"ns\","
                          "\"traceEvents\":[",
                          0),
              0u);
    EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");

    // Balanced braces/brackets over the whole document.
    int depth = 0;
    bool in_str = false;
    for (const char c : trace) {
        if (in_str) {
            in_str = c != '"';
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // Per-event checks: one object per line, keys alphabetical,
    // timestamps monotone non-decreasing.
    std::istringstream in(trace);
    std::string line;
    std::getline(in, line); // header
    std::int64_t prev_ts = 0;
    int events = 0;
    while (std::getline(in, line)) {
        if (line == "]}" || line.empty())
            break;
        while (!line.empty() && line.back() == ',')
            line.pop_back();
        ASSERT_EQ(line.front(), '{') << line;
        ASSERT_EQ(line.back(), '}') << line;
        const std::vector<std::string> keys = eventKeys(line);
        ASSERT_GE(keys.size(), 5u) << line;
        for (size_t i = 1; i < keys.size(); ++i)
            EXPECT_LT(keys[i - 1], keys[i])
                << "unsorted keys in " << line;
        const size_t ts = line.find("\"ts\":");
        ASSERT_NE(ts, std::string::npos) << line;
        const std::int64_t t = std::stoll(line.substr(ts + 5));
        EXPECT_GE(t, prev_ts) << "timestamps regress at " << line;
        prev_ts = t;
        ++events;
    }
    EXPECT_GT(events, 100);

    // Spans pair up: every B has a matching E (finish closes spans).
    const auto count = [&trace](const std::string &needle) {
        size_t n = 0, pos = 0;
        while ((pos = trace.find(needle, pos)) != std::string::npos) {
            ++n;
            pos += needle.size();
        }
        return n;
    };
    EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
}

TEST(ObsTimeline, SyntheticSpansAndSortedKeys)
{
    std::ostringstream os;
    TimelineExporter tl(os, /*detail=*/true);
    tl.begin(2);
    tl.modeSpan(0, 3, Mode::User, 10);
    tl.modeSpan(0, 3, Mode::Kernel, 25);
    tl.syscallBegin(0, 3, "read", 25);
    tl.squash(1, 4, 0x1234, "mispredict", 30);
    tl.schedSpan(1, 4, false, "pid4", 32);
    tl.memInstant("dtlb", 3, 0xbeef, 40);
    tl.modeSpan(0, 3, Mode::User, 48);
    tl.finish(60); // closes mode, sched, and syscall spans
    const std::string out = os.str();

    // Header, footer, and the spans we opened.
    EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u);
    EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
    EXPECT_NE(out.find("\"name\":\"core modes\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"kernel\",\"ph\":\"B\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"mispredict\",\"ph\":\"i\""),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"pc\":\"0x1234\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"dtlb\""), std::string::npos);
    // finish() closed user-mode and scheduler spans at ts 60.
    EXPECT_NE(out.find("\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":60"),
              std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"E\",\"pid\":2,\"tid\":1,\"ts\":60"),
              std::string::npos);

    // Determinism: an identical synthetic sequence reproduces the
    // output byte for byte.
    std::ostringstream os2;
    TimelineExporter tl2(os2, true);
    tl2.begin(2);
    tl2.modeSpan(0, 3, Mode::User, 10);
    tl2.modeSpan(0, 3, Mode::Kernel, 25);
    tl2.syscallBegin(0, 3, "read", 25);
    tl2.squash(1, 4, 0x1234, "mispredict", 30);
    tl2.schedSpan(1, 4, false, "pid4", 32);
    tl2.memInstant("dtlb", 3, 0xbeef, 40);
    tl2.modeSpan(0, 3, Mode::User, 48);
    tl2.finish(60);
    EXPECT_EQ(out, os2.str());
    EXPECT_EQ(tl.eventCount(), tl2.eventCount());
}
