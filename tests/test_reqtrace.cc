/**
 * @file
 * End-to-end request tracing: the span-sum == end-to-end invariant
 * must hold exactly for every clean span (verified under the
 * co-simulation oracle across context counts), tracing must not
 * perturb the simulation (identical cycles/metrics with the tracer on
 * and off), same-seed runs must produce byte-identical span JSONL,
 * tracer state must round-trip through snapshot/resume taken
 * mid-request (a straight run's span file equals the concatenation of
 * the two halves' files), and injected packet loss must surface as
 * retransmit-annotated spans that stay out of the clean histograms.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness/cosim.h"
#include "harness/session.h"
#include "net/clients.h"
#include "obs/reqtrace.h"
#include "obs/session.h"
#include "sim/config.h"
#include "sim/export.h"
#include "sim/system.h"
#include "workload/apache.h"
#include "workload/specint.h"

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
               ("smtos_reqtrace_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/**
 * Every clean span must telescope: monotone boundaries whose stage
 * differences sum exactly to the client-observed end-to-end latency.
 */
void
checkCleanSpans(const RequestTracer &tr)
{
    std::uint64_t clean = 0;
    for (const RequestTracer::Span &s : tr.completed()) {
        if (!s.clean)
            continue;
        ++clean;
        std::uint64_t sum = 0;
        for (int b = 0; b < numReqStages; ++b) {
            ASSERT_LE(s.t[b], s.t[b + 1])
                << "non-monotone boundary " << b << " of span ("
                << s.client << ", " << s.seq << ")";
            sum += s.t[b + 1] - s.t[b];
        }
        ASSERT_EQ(sum, s.t[numReqBoundaries - 1] - s.t[0])
            << "stage sum != end-to-end for span (" << s.client
            << ", " << s.seq << ")";
    }
    EXPECT_EQ(clean, tr.stats().completedClean);
}

/** Aggregate counters must agree with themselves and the clients. */
void
checkStatsConsistency(const RequestTracer &tr,
                      const ClientPopulation &cl)
{
    const ReqTraceStats &st = tr.stats();
    std::uint64_t stageSum = 0, queueing = 0, service = 0;
    for (int i = 0; i < numReqStages; ++i) {
        stageSum += st.stageCycles[i];
        (reqStageIsQueueing(i) ? queueing : service) +=
            st.stageCycles[i];
    }
    EXPECT_EQ(queueing, st.queueingCycles);
    EXPECT_EQ(service, st.serviceCycles);
    EXPECT_EQ(stageSum, st.queueingCycles + st.serviceCycles);
    EXPECT_EQ(tr.e2e().totalSamples(), st.completedClean);
    // The tracer was attached before the first packet, so every
    // completion is classified; the client histograms partition the
    // same way (first-try == clean, retried == retried).
    EXPECT_EQ(st.completedClean + st.completedRetried +
                  st.completedIrregular,
              cl.responsesCompleted());
    EXPECT_EQ(st.completedIrregular, 0u);
    EXPECT_EQ(st.completedClean, cl.latency().totalSamples());
    EXPECT_EQ(st.completedRetried, cl.retriedResponses());
}

MachineConfig
apacheConfig(int contexts)
{
    MachineConfig cfg = smtConfig();
    cfg.core.numContexts = contexts;
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    return cfg;
}

/** JSON with one ,"key":{...} object removed (brace-balanced). */
std::string
stripObject(std::string json, const std::string &key)
{
    const std::string tag = ",\"" + key + "\":{";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos)
        return json;
    std::size_t depth = 0, end = at;
    for (std::size_t i = at + tag.size() - 1; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0) {
            end = i;
            break;
        }
    }
    json.erase(at, end - at + 1);
    return json;
}

Session::Config
tracedApache()
{
    Session::Config cfg;
    cfg.workload.kind = WorkloadConfig::Kind::Apache;
    cfg.phases.startupInstrs = 1'000'000;
    cfg.phases.measureInstrs = 1'500'000;
    return cfg;
}

ObsConfig
spanSink(const fs::path &file)
{
    ObsConfig oc;
    oc.reqtrace = true;
    oc.reqtraceFilePath = file.string();
    return oc;
}

} // namespace

// The tentpole invariant, under the co-simulation oracle: at every
// context count the traced run stays architecturally exact, and every
// clean span telescopes to the client-observed latency.
class ReqTraceInvariant : public ::testing::TestWithParam<int>
{
};

TEST_P(ReqTraceInvariant, CleanSpansTelescopeUnderCosim)
{
    const int contexts = GetParam();
    System sys(apacheConfig(contexts));

    ObsConfig oc;
    oc.reqtrace = true;
    ObsSession obs(oc);
    obs.attach(sys);

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(1'200'000);

    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    EXPECT_GT(cosim.checked(), 50000u);

    const RequestTracer &tr = *obs.reqtrace();
    EXPECT_GT(tr.stats().tracked, 0u);
    if (contexts >= 2) {
        EXPECT_GT(tr.stats().completedClean, 0u);
    }
    checkCleanSpans(tr);
    checkStatsConsistency(tr, sys.kernel().clients());
}

INSTANTIATE_TEST_SUITE_P(Contexts, ReqTraceInvariant,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto &info) {
                             return "Ctx" +
                                    std::to_string(info.param);
                         });

// A workload with no network traffic must produce no spans — and the
// tracer's presence must not disturb the oracle.
TEST(ReqTraceSpec, SpecIntHasNoSpans)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 7;
    System sys(cfg);

    ObsConfig oc;
    oc.reqtrace = true;
    ObsSession obs(oc);
    obs.attach(sys);

    SpecIntParams p;
    p.inputChunks = 24;
    SpecIntWorkload w = buildSpecInt(p);
    installSpecInt(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(150'000);

    EXPECT_FALSE(cosim.diverged()) << cosim.report();
    const RequestTracer &tr = *obs.reqtrace();
    EXPECT_EQ(tr.stats().tracked, 0u);
    EXPECT_EQ(tr.inflight(), 0u);
    EXPECT_TRUE(tr.completed().empty());
}

// Tracing is observation only: the traced run's cycles, requests, and
// exported metrics (minus the reqtrace block itself) are identical to
// the untraced run's, and only the traced timeline carries request
// flow events and queue-depth counter tracks.
TEST(ReqTraceParity, TracingDoesNotPerturbTheSimulation)
{
    Session::Config cfg;
    cfg.workload.kind = WorkloadConfig::Kind::Apache;
    cfg.phases.startupInstrs = 200'000;
    cfg.phases.measureInstrs = 400'000;

    const RunResult plain = Session(cfg).run();

    TempDir dir("parity");
    ObsConfig untracedOc;
    untracedOc.timelinePath = (dir.path / "plain.json").string();
    RunResult probed;
    {
        ObsSession obs(untracedOc);
        Session::Config c = cfg;
        c.obs = &obs;
        probed = Session(c).run();
    }

    ObsConfig tracedOc = spanSink(dir.path / "spans.jsonl");
    tracedOc.timelinePath = (dir.path / "traced.json").string();
    RunResult traced;
    {
        ObsSession obs(tracedOc);
        Session::Config c = cfg;
        c.obs = &obs;
        traced = Session(c).run();
    }

    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.requestsServed, plain.requestsServed);
    EXPECT_EQ(probed.cycles, plain.cycles);
    EXPECT_EQ(toJson(probed.steady), toJson(plain.steady));
    EXPECT_EQ(stripObject(toJson(traced.steady), "reqtrace"),
              toJson(plain.steady));
    EXPECT_NE(toJson(traced.steady).find("\"reqtrace\":"),
              std::string::npos);

    const std::string plainTl = readFile(dir.path / "plain.json");
    const std::string tracedTl = readFile(dir.path / "traced.json");
    EXPECT_EQ(plainTl.find("\"cat\":\"req\""), std::string::npos);
    EXPECT_EQ(plainTl.find("queues"), std::string::npos);
    EXPECT_NE(tracedTl.find("\"cat\":\"req\""), std::string::npos);
    EXPECT_NE(tracedTl.find("\"cat\":\"queue\""), std::string::npos);
}

// Same seed, same spans, same bytes.
TEST(ReqTraceDeterminism, SameSeedSpanFilesAreByteIdentical)
{
    TempDir dir("determ");
    std::string bytes[2];
    for (int i = 0; i < 2; ++i) {
        const fs::path f =
            dir.path / ("spans" + std::to_string(i) + ".jsonl");
        ObsSession obs(spanSink(f));
        Session::Config cfg = tracedApache();
        cfg.obs = &obs;
        Session(cfg).run();
        bytes[i] = readFile(f);
    }
    EXPECT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_NE(bytes[0].find("\"clean\":true"), std::string::npos);
}

// Snapshot taken with requests in flight: the resumed tracer picks
// the spans up mid-pipeline, its span file continues exactly where
// the origin's stopped (concatenation equals the straight-through
// file), and the final aggregates match the straight run's.
TEST(ReqTraceSnap, ResumeMidRequestRoundTrips)
{
    TempDir dir("snap");
    const Session::Config base = tracedApache();

    // Straight through: one session, one span file.
    ReqTraceStats straightStats;
    std::uint64_t straightCycles = 0;
    {
        ObsSession obs(spanSink(dir.path / "straight.jsonl"));
        Session::Config cfg = base;
        cfg.obs = &obs;
        Session s(cfg);
        s.runStartup();
        straightCycles = s.run().cycles;
        straightStats = obs.reqtrace()->stats();
    }

    // Split: startup + snapshot under one tracer, measurement under a
    // fresh tracer restored from the artifact.
    std::vector<std::uint8_t> artifact;
    {
        ObsSession obs(spanSink(dir.path / "half1.jsonl"));
        Session::Config cfg = base;
        cfg.obs = &obs;
        Session origin(cfg);
        origin.runStartup();
        artifact = origin.snapshot();
        EXPECT_GT(obs.reqtrace()->inflight(), 0u)
            << "snapshot was not taken mid-request";
        obs.finish();
    }
    ReqTraceStats resumedStats;
    std::uint64_t resumedCycles = 0;
    {
        ObsSession obs(spanSink(dir.path / "half2.jsonl"));
        Session::ResumeOptions opts;
        opts.phases = base.phases;
        opts.obs = &obs;
        std::string err;
        std::unique_ptr<Session> resumed =
            Session::resume(artifact, opts, &err);
        ASSERT_NE(resumed, nullptr) << err;
        resumedCycles = resumed->run().cycles;
        resumedStats = obs.reqtrace()->stats();
    }

    EXPECT_EQ(resumedCycles, straightCycles);
    EXPECT_EQ(readFile(dir.path / "half1.jsonl") +
                  readFile(dir.path / "half2.jsonl"),
              readFile(dir.path / "straight.jsonl"));

    EXPECT_EQ(resumedStats.tracked, straightStats.tracked);
    EXPECT_EQ(resumedStats.completedClean,
              straightStats.completedClean);
    EXPECT_EQ(resumedStats.completedRetried,
              straightStats.completedRetried);
    EXPECT_EQ(resumedStats.completedIrregular,
              straightStats.completedIrregular);
    EXPECT_EQ(resumedStats.aborted, straightStats.aborted);
    EXPECT_EQ(resumedStats.queueingCycles,
              straightStats.queueingCycles);
    EXPECT_EQ(resumedStats.serviceCycles,
              straightStats.serviceCycles);
    for (int i = 0; i < numReqStages; ++i)
        EXPECT_EQ(resumedStats.stageCycles[i],
                  straightStats.stageCycles[i])
            << reqStageName(i);
}

// Every artifact ends in the tracer section: an untraced session's
// holds only its cleared traced flag, and still resumes into an
// untraced session.
TEST(ReqTraceSnap, UntracedArtifactHasAnEmptyTracerSection)
{
    Session::Config cfg = tracedApache();
    cfg.phases.startupInstrs = 200'000;
    Session s(cfg);
    s.runStartup();
    const std::vector<std::uint8_t> artifact = s.snapshot();

    // fourcc, version, byte length, then the one flag byte.
    constexpr std::size_t tail = 4 + 4 + 8 + 1;
    ASSERT_GT(artifact.size(), tail);
    const std::uint8_t *sec = artifact.data() + artifact.size() - tail;
    EXPECT_EQ(std::string(sec, sec + 4), "RQTR");
    std::uint64_t len = 0;
    std::memcpy(&len, sec + 8, sizeof len);
    EXPECT_EQ(len, 1u);
    EXPECT_EQ(artifact.back(), 0u);

    Session::ResumeOptions opts;
    opts.phases.measureInstrs = 100'000;
    std::string err;
    EXPECT_NE(Session::resume(artifact, opts, &err), nullptr) << err;
}

// Packet loss: retransmitted requests are annotated, counted, and
// timed apart; the spans that stayed clean still telescope exactly.
TEST(ReqTraceFaults, LossAnnotatesRetriedSpans)
{
    MachineConfig cfg = apacheConfig(8);
    // A light client population keeps the unlost requests well under
    // the retry timeout (so they complete clean) while lost packets
    // still time out and retry within the run.
    cfg.kernel.web.numClients = 16;
    cfg.kernel.web.retryTimeout = 200000;
    System sys(cfg);

    TempDir dir("loss");
    ObsSession obs(spanSink(dir.path / "spans.jsonl"));
    obs.attach(sys);

    FaultParams fp;
    fp.lossPct = 0.01;
    FaultPlan plan(fp);
    sys.attachFaults(&plan);

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(1'500'000);
    obs.finish();

    const RequestTracer &tr = *obs.reqtrace();
    const ReqTraceStats &st = tr.stats();
    EXPECT_GT(sys.kernel().faultCounters().pktLost, 0u);
    EXPECT_GT(st.retransmitAnnotations, 0u);
    EXPECT_GT(st.completedRetried, 0u);
    EXPECT_GT(st.completedClean, 0u);
    checkCleanSpans(tr);
    EXPECT_EQ(st.completedRetried,
              sys.kernel().clients().retriedResponses());
    // Retried spans never land in the clean histograms.
    EXPECT_EQ(tr.e2e().totalSamples(), st.completedClean);

    const std::string spans = readFile(dir.path / "spans.jsonl");
    EXPECT_NE(spans.find("\"retried\":true"), std::string::npos);
    EXPECT_NE(spans.find("\"clean\":true"), std::string::npos);
}
