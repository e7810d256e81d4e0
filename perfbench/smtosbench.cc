/**
 * @file
 * smtosbench: the repository benchmark driver.
 *
 * Drives the simulator in a closed loop through its public API, one
 * workload per process, on one host thread. One pass builds one
 * machine at one seed:
 *
 *   set-up       Session construction + runStartup()
 *   measurement  System::run in fixed-size instruction chunks between
 *                two MetricsSnapshot captures; the steady delta is
 *                exported with toJson and hashed into a digest; later
 *                rounds replay the chunks from a snapshot (see Plan)
 *   snapshot     Session::snapshot of the end-of-measurement state
 *   resume       Session::resume of that artifact, repeated
 *   replay       K more instructions on the original session and on a
 *                resumed one; the two deltas must be byte-identical
 *
 * An untraced run makes several passes, at seeds derived from --seed,
 * and pools them: host cost depends on the simulated program, which
 * the seed generates, so one seed alone would make a noisy benchmark.
 *
 * Every call above is an operation: it fails when it errors, returns
 * null, or retires fewer instructions than asked. With --trace 1 the
 * benchmark runs one pass at --seed twice, untraced and then traced
 * (spans around each call from this file, plus a cycle-attribution
 * profiler), checks that every simulated metric agrees, and reports
 * per-layer numbers.
 *
 * Output: human-readable lines, a "progress ok=<n>" line after each
 * phase, and a final "RESULT {...}" line of flat metrics that run.py
 * turns into the benchmark's JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bp/mcfarling.h"
#include "common/rng.h"
#include "harness/session.h"
#include "mem/cache.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "sim/export.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "vm/addrspace.h"
#include "vm/physmem.h"
#include "vm/tlb.h"

using namespace smtos;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------

/** One benchmark workload: a session config plus its run sizing. */
struct Workload
{
    std::string name;
    Session::Config cfg;
    /** Instructions per System::run call in the measurement phase. */
    std::uint64_t chunkInstrs = 0;
    /** Reference host rate (M instr/s) that turns --seconds into a
     *  fixed instruction budget, so simulated results are exact at a
     *  seed whatever the host speed. */
    double nominalMips = 0;
    /** Machines (seeds) one untraced run pools. */
    int seeds = 1;
    /** Times an untraced run measures each chunk (see Plan). */
    int rounds = 8;

    bool detailed() const { return cfg.fidelity == Fidelity::Detailed; }
    bool
    apache() const
    {
        return cfg.workload.kind == WorkloadConfig::Kind::Apache;
    }
};

/** Apache under the SPECWeb-like closed-loop client population. */
Session::Config
apacheConfig(int cores, int contextsPerCore)
{
    Session::Config c;
    c.workload.kind = WorkloadConfig::Kind::Apache;
    c.system.topology.cores = cores;
    c.system.topology.contextsPerCore = contextsPerCore;
    c.phases.startupInstrs = 2'000'000;
    return c;
}

bool
makeWorkload(const std::string &name, bool smoke, Workload &w)
{
    w.name = name;
    if (name == "apache-smt") {
        w.cfg = apacheConfig(1, 8);
        w.chunkInstrs = 20'000;
        w.nominalMips = 1.3;
        w.seeds = 8;
        w.rounds = 6;
    } else if (name == "apache-cmp4") {
        // Fewer seeds than apache-smt: each set-up costs twice as much.
        w.cfg = apacheConfig(4, 4);
        w.chunkInstrs = 20'000;
        w.nominalMips = 0.7;
        w.seeds = 4;
        w.rounds = 4;
    } else if (name == "specint-functional") {
        Session::Config c;
        c.workload.kind = WorkloadConfig::Kind::SpecInt;
        c.workload.spec.inputChunks = 48;
        c.fidelity = Fidelity::Functional;
        // 0: run until every application finished its input reads.
        c.phases.startupInstrs = 0;
        w.cfg = c;
        w.chunkInstrs = 50'000;
        w.nominalMips = 12.0;
        w.seeds = 8;
    } else {
        return false;
    }
    if (smoke) {
        w.seeds = 2;
        w.rounds = 2;
        if (w.cfg.phases.startupInstrs > 0)
            w.cfg.phases.startupInstrs = 200'000;
        else
            w.cfg.workload.spec.inputChunks = 4;
    }
    return true;
}

/** Seed of pass @p i; pass 0 runs --seed itself. */
std::uint64_t
passSeed(std::uint64_t seed, int i)
{
    return seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
}

// --- operation ledger --------------------------------------------------

/** Counts operations attempted and failed, and the checks made. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checksOk = true;

    /** Record one operation; @p ok false marks it failed. */
    bool
    op(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAILED operation: %s\n", what);
        }
        return ok;
    }

    /** Record a correctness check that is not itself an operation. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            checksOk = false;
            std::printf("FAILED check: %s\n", what.c_str());
        }
    }

    void
    progress() const
    {
        std::printf("progress ok=%" PRIu64 "\n", attempted - failed);
        std::fflush(stdout);
    }
};

// --- spans -------------------------------------------------------------

/**
 * In-memory span recorder for the traced run. Spans nest by a stack;
 * a disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0, end = 0; ///< seconds since the tracer origin
        int parent = -1;
        int run = 0;
    };

    Tracer(bool on, int run) : on_(on), run_(run), origin_(Clock::now())
    {
    }

    int
    begin(const char *name)
    {
        if (!on_)
            return -1;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, now(), 0,
                          stack_.empty() ? -1 : stack_.back(), run_});
        stack_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    double now() const { return secondsBetween(origin_, Clock::now()); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    int run_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Span self time: its duration minus what its children cover. */
std::map<std::string, double>
selfTimes(const std::vector<Tracer::Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Tracer::Span &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> byName;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name] += self[i];
    return byName;
}

void
writeSpans(const std::string &path, const std::vector<Tracer::Span> &spans)
{
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                      "\"end_s\":%.9f,\"parent\":%d,\"run\":%d}\n",
                      i, s.name.c_str(), s.start, s.end, s.parent, s.run);
        os << line;
    }
}

// --- helpers -----------------------------------------------------------

std::uint64_t
chipRetired(System &sys)
{
    std::uint64_t n = 0;
    for (Pipeline *p : sys.pipes())
        n += p->stats().totalRetired();
    return n;
}

std::uint64_t
chipFastForwarded(System &sys)
{
    std::uint64_t n = 0;
    for (Pipeline *p : sys.pipes())
        n += p->fastForwardedCycles();
    return n;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (@p q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    k = std::clamp<std::size_t>(k, 1, v.size());
    return v[k - 1];
}

double
pctOf(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

/** FNV-1a, folded to 53 bits so it is exact as a JSON number. */
std::uint64_t
digest53(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return (h ^ (h >> 53)) & ((1ull << 53) - 1);
}

/** Metric name fragment from a taxonomy name ("icache-miss"). */
std::string
ident(const char *name)
{
    std::string s = name;
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

/** A flat metric: value and unit. */
struct Metric
{
    double value;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Simulated metrics of the steady delta: deterministic at a seed, so
 * the traced and untraced runs must agree on every one.
 */
Metrics
simulatedMetrics(const MetricsSnapshot &d, int cores, std::uint64_t digest)
{
    const ArchMetrics a = archMetrics(d);
    const ModeShares m = modeShares(d);
    std::uint64_t syscalls = 0;
    for (const auto &kv : d.syscalls)
        syscalls += kv.second;
    const SmpStats &smp = d.smp;
    const double cycles = static_cast<double>(d.core.cycles);
    // A CMP capture sums zero-fetch/issue cycles over cores but keeps
    // the chip cycle, so share them over core-cycles.
    const double coreCycles = cycles * cores;
    return {
        {"sim_ipc", {a.ipc, "instr/cycle"}},
        {"sim_req_per_mcycle",
         {cycles > 0 ? 1e6 * static_cast<double>(d.requestsServed) /
                           cycles
                     : 0.0,
          "req/Mcycle"}},
        {"model.stats_digest", {static_cast<double>(digest), "hash"}},
        {"core.cycles", {cycles, "cycles"}},
        {"core.fetchable_ctx", {a.fetchableContexts, "contexts"}},
        {"core.squashed_pct", {a.squashedPct, "%"}},
        {"core.zero_fetch_pct",
         {pctOf(static_cast<double>(d.core.zeroFetchCycles), coreCycles),
          "%"}},
        {"core.zero_issue_pct",
         {pctOf(static_cast<double>(d.core.zeroIssueCycles), coreCycles),
          "%"}},
        {"bp.cond_mispredict_pct", {a.branchMispredPct, "%"}},
        {"bp.btb_miss_pct", {a.btbMissPct, "%"}},
        {"mem.l1i_miss_pct", {a.l1iMissPct, "%"}},
        {"mem.l1d_miss_pct", {a.l1dMissPct, "%"}},
        {"mem.l2_miss_pct", {a.l2MissPct, "%"}},
        {"mem.coherence_snoops",
         {static_cast<double>(smp.coherence.snoopProbes), "count"}},
        {"mem.coherence_invalidations",
         {static_cast<double>(smp.coherence.invalidations), "count"}},
        {"vm.itlb_miss_pct", {a.itlbMissPct, "%"}},
        {"vm.dtlb_miss_pct", {a.dtlbMissPct, "%"}},
        {"kernel.user_pct", {m.userPct, "%"}},
        {"kernel.kernel_pct", {m.kernelPct, "%"}},
        {"kernel.pal_pct", {m.palPct, "%"}},
        {"kernel.idle_pct", {m.idlePct, "%"}},
        {"kernel.syscalls", {static_cast<double>(syscalls), "count"}},
        {"kernel.context_switches",
         {static_cast<double>(d.contextSwitches), "count"}},
        {"kernel.lock_spin_cycles",
         {static_cast<double>(smp.connLock.spinCycles +
                              smp.mbufLock.spinCycles +
                              smp.schedLock.spinCycles),
          "cycles"}},
        {"kernel.work_steals",
         {static_cast<double>(smp.workSteals), "count"}},
        {"kernel.shootdown_ipis",
         {static_cast<double>(smp.shootdownIpis), "count"}},
        {"net.requests_served",
         {static_cast<double>(d.requestsServed), "count"}},
        {"net.latency_p50_cycles", {d.latency.p50, "cycles"}},
    };
}

// --- substrate per-call timings -----------------------------------------

/** Median ns per call of @p body over @p calls calls, five times. */
template <typename F>
double
nsPerCall(std::size_t calls, F body)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            body(i);
        reps.push_back(1e9 * secondsBetween(t0, Clock::now()) /
                       static_cast<double>(calls));
    }
    return median(reps);
}

/**
 * Per-call host cost of the substrate hot paths, driven by streams
 * precomputed outside the timed loops.
 */
Metrics
substrateMetrics(Tracer &tr, std::size_t calls)
{
    constexpr std::size_t mask = 4096 - 1;
    Metrics out;
    volatile std::uint64_t sink = 0;
    {
        Scope s(tr, "mem.cache_access");
        Cache c(CacheParams{});
        const AccessInfo who{1, Mode::User, 0};
        Rng rng(1);
        std::vector<Addr> addrs(mask + 1);
        for (Addr &a : addrs)
            a = rng.below(1 << 22) & ~7ull;
        out["mem.cache_access_ns"] = {
            nsPerCall(calls,
                      [&](std::size_t i) {
                          sink = sink + c.access(addrs[i & mask], who,
                                                 false)
                                            .hit;
                      }),
            "ns"};
    }
    {
        Scope s(tr, "vm.tlb_lookup");
        Tlb tlb("bench-dtlb", 128);
        const AccessInfo who{1, Mode::User, 0};
        constexpr Addr pages = 96;
        for (Addr v = 0; v < pages; ++v)
            tlb.insert(v, 1, static_cast<Frame>(v + 1), who);
        Rng rng(3);
        std::vector<Addr> vpns(mask + 1);
        for (Addr &v : vpns)
            v = rng.below(pages);
        out["vm.tlb_lookup_ns"] = {
            nsPerCall(calls,
                      [&](std::size_t i) {
                          sink = sink + static_cast<std::uint64_t>(
                                            tlb.lookup(vpns[i & mask], 1,
                                                       who));
                      }),
            "ns"};
    }
    {
        Scope s(tr, "vm.translate");
        PhysMem mem;
        AddrSpace sp(1, mem);
        constexpr Addr pages = 512;
        for (Addr v = 0; v < pages; ++v)
            sp.mapNew(v);
        Rng rng(4);
        std::vector<Addr> vpns(mask + 1);
        for (Addr &v : vpns)
            v = rng.below(pages);
        out["vm.translate_ns"] = {
            nsPerCall(calls,
                      [&](std::size_t i) {
                          sink = sink + static_cast<std::uint64_t>(
                                            sp.translate(vpns[i & mask]));
                      }),
            "ns"};
    }
    {
        Scope s(tr, "bp.predict_train");
        McFarling m;
        Rng rng(2);
        std::vector<Addr> pcs(mask + 1);
        std::vector<std::uint8_t> taken(mask + 1);
        for (std::size_t i = 0; i <= mask; ++i) {
            pcs[i] = 0x1000 + (rng.below(512) << 2);
            taken[i] = rng.chance(0.6);
        }
        out["bp.predict_train_ns"] = {
            nsPerCall(calls,
                      [&](std::size_t i) {
                          const std::size_t k = i & mask;
                          sink = sink + m.predict(pcs[k]);
                          m.train(pcs[k], taken[k] != 0);
                      }),
            "ns"};
    }
    return out;
}

// --- one pass ------------------------------------------------------------

/**
 * Sizes of one pass (one machine, one seed).
 *
 * Host speed on a shared machine drifts in phases of seconds, longer
 * than one pass. So an untraced run measures each pass's chunks in
 * several rounds: round 0 on the live session right after set-up, and
 * each later round, once every pass has had round 0, on a session
 * resumed from the pass's start snapshot. Replays of a pass thus lie
 * a round apart and span the run, and each chunk keeps its fastest
 * time: the best-of-N estimator bench/fig_sample_accuracy uses for
 * rates.
 */
struct Plan
{
    /** Distinct chunks measured; every round runs each once. */
    std::uint64_t chunks = 0;
    int rounds = 1;
    int saveReps = 1;
    int resumeReps = 1;
    std::uint64_t replayInstrs = 0;

    /** Operations one pass attempts, for the abort accounting. */
    std::uint64_t
    operations() const
    {
        const auto r = static_cast<std::uint64_t>(rounds);
        // construct, start-up, two captures, the chunks of every round,
        // the start snapshot and a resume per later round, export, the
        // saves, the resumes, and the replay check.
        return 4 + chunks * r + (r > 1 ? r : 0) + 1 +
               static_cast<std::uint64_t>(saveReps) +
               static_cast<std::uint64_t>(resumeReps) + 1;
    }
};

struct PassResult
{
    std::uint64_t seed = 0;
    double setupS = 0, constructS = 0, startupS = 0;
    std::vector<double> saveS;
    /** Resumes of the end-of-measurement artifact and of the replays. */
    std::vector<double> resumeS;
    /** File holding the snapshot at the start of the measurement while
     *  later rounds replay it: on disk, so that the snapshots of earlier
     *  passes do not count in the resident memory of later ones. */
    std::string startPath;
    /** Per chunk: its fastest time over the rounds, and the retired
     *  count and end cycle of round 0, which every replay reproduces. */
    std::vector<double> bestS;
    std::vector<std::uint64_t> retired;
    std::vector<Cycle> endCycle;
    /** Host time of all chunks, per round. */
    std::vector<double> roundS;
    /** Per chunk, from its fastest round (set by finishPass). */
    std::vector<double> chunkNsPerInstr;
    /** Sum of the chunks' fastest times (set by finishPass). */
    double measureS = 0;
    std::uint64_t measuredInstrs = 0;
    std::uint64_t chipCycles = 0;
    std::uint64_t ffCycles = 0;
    int cores = 1;
    double captureS = 0, exportS = 0;
    std::size_t exportBytes = 0;
    std::size_t artifactBytes = 0;
    Metrics sim;
    /** Chip totals from the profiler (traced pass only). */
    std::vector<std::pair<std::string, double>> lostPct;
};

/**
 * Run @p res's chunks on @p x, keeping each one's fastest time. Round 0
 * (@p first) records what every replay must reproduce.
 */
void
runChunks(const Workload &w, System &x, PassResult &res, bool first,
          Tracer &tr, Ledger &led)
{
    res.roundS.push_back(0);
    for (std::size_t k = 0; k < res.bestS.size(); ++k) {
        Scope s(tr, "sim.run");
        const std::uint64_t r0 = chipRetired(x);
        const auto c0 = Clock::now();
        x.run(w.chunkInstrs);
        const double dt = secondsBetween(c0, Clock::now());
        const std::uint64_t got = chipRetired(x) - r0;
        led.op(got >= w.chunkInstrs, "run chunk");
        res.roundS.back() += dt;
        res.bestS[k] = std::min(res.bestS[k], dt);
        if (first) {
            res.retired[k] = got;
            res.endCycle[k] = x.pipeline().now();
            res.measuredInstrs += got;
        } else {
            led.check(got == res.retired[k] &&
                          x.pipeline().now() == res.endCycle[k],
                      "a replayed chunk retires as in round 0");
        }
    }
}

bool
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(os);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** A later round of @p res: resume its start snapshot and replay. */
void
replayPass(const Workload &w, PassResult &res, Tracer &tr, Ledger &led)
{
    const std::vector<std::uint8_t> start = readFile(res.startPath);
    Session::ResumeOptions ro;
    ro.phases = w.cfg.phases;
    std::string err;
    const auto c0 = Clock::now();
    std::unique_ptr<Session> r = Session::resume(start, ro, &err);
    res.resumeS.push_back(secondsBetween(c0, Clock::now()));
    if (led.op(r != nullptr, "replay resume")) {
        runChunks(w, r->system(), res, false, tr, led);
    } else {
        std::printf("resume error: %s\n", err.c_str());
        for (std::size_t k = 0; k < res.bestS.size(); ++k)
            led.op(false, "run chunk");
    }
}

/** Fold the chunks' fastest times into the pass's host cost. */
void
finishPass(PassResult &res)
{
    if (!res.startPath.empty())
        std::remove(res.startPath.c_str());
    res.measureS = 0;
    res.chunkNsPerInstr.clear();
    for (std::size_t k = 0; k < res.bestS.size(); ++k) {
        res.measureS += res.bestS[k];
        res.chunkNsPerInstr.push_back(
            res.retired[k]
                ? 1e9 * res.bestS[k] / static_cast<double>(res.retired[k])
                : 0.0);
    }
}

/**
 * Build one machine at @p seed and run set-up, measurement, snapshot,
 * resume and replay. With a profiler report path (@p profile
 * non-empty) the measurement phase runs under an attached ObsSession;
 * with @p startPath non-empty the measurement's start snapshot goes
 * there for later rounds.
 */
PassResult
runPass(const Workload &w, std::uint64_t seed, const Plan &plan, Tracer &tr,
        Ledger &led, const std::string &profile,
        const std::string &startPath)
{
    PassResult res;
    res.seed = seed;
    Session::Config cfg = w.cfg;
    cfg.workload.seed = seed;

    // Declared first so it outlives the session that reports into it.
    std::unique_ptr<ObsSession> obs;
    std::unique_ptr<Session> sess;

    const auto t0 = Clock::now();
    {
        Scope s(tr, "harness.construct");
        sess = std::make_unique<Session>(cfg);
    }
    const auto t1 = Clock::now();
    led.op(sess != nullptr, "construct");
    System &sys = sess->system();
    const std::uint64_t before = chipRetired(sys);
    {
        Scope s(tr, "harness.startup");
        sess->runStartup();
    }
    const auto t2 = Clock::now();
    led.op(cfg.phases.startupInstrs > 0
               ? chipRetired(sys) - before >= cfg.phases.startupInstrs
               : sys.kernel().startupComplete(),
           "start-up");
    res.constructS = secondsBetween(t0, t1);
    res.startupS = secondsBetween(t1, t2);
    res.setupS = secondsBetween(t0, t2);
    res.cores = sys.numCores();
    led.progress();

    if (!profile.empty()) {
        Scope s(tr, "obs.attach");
        ObsConfig oc;
        oc.profile = true;
        oc.reportPath = profile;
        obs = std::make_unique<ObsSession>(oc);
        sess->attachObs(*obs);
    }

    // Measurement phase: round 0 of the chunks, on the live session.
    auto timedCapture = [&]() {
        Scope s(tr, "sim.capture");
        const auto c0 = Clock::now();
        MetricsSnapshot snap = sess->capture();
        res.captureS += secondsBetween(c0, Clock::now());
        led.op(true, "capture");
        return snap;
    };
    const MetricsSnapshot s0 = timedCapture();
    const std::uint64_t ff0 = chipFastForwarded(sys);
    const Cycle cyc0 = sys.pipeline().now();
    if (!startPath.empty()) {
        Scope s(tr, "measure.snapshot");
        const std::vector<std::uint8_t> start = sess->snapshot();
        res.startPath = startPath;
        led.op(!start.empty() && writeFile(startPath, start),
               "start snapshot");
    }
    res.bestS.assign(plan.chunks, HUGE_VAL);
    res.retired.resize(plan.chunks);
    res.endCycle.resize(plan.chunks);
    {
        Scope m(tr, "measure");
        runChunks(w, sys, res, true, tr, led);
    }
    res.ffCycles = chipFastForwarded(sys) - ff0;
    res.chipCycles = sys.pipeline().now() - cyc0;
    const MetricsSnapshot steady = timedCapture().delta(s0);
    std::string exported;
    {
        Scope s(tr, "sim.export");
        const auto c0 = Clock::now();
        exported = toJson(steady);
        res.exportS = secondsBetween(c0, Clock::now());
        res.exportBytes = exported.size();
        led.op(exported.size() > 2 && exported.front() == '{' &&
                   exported.back() == '}',
               "export");
    }
    led.check(steady.core.totalRetired() == res.measuredInstrs,
              "steady delta counts every measured instruction");
    res.sim = simulatedMetrics(steady, res.cores, digest53(exported));

    if (obs) {
        // Chip totals of the fetch/issue slot partition.
        const CycleProfiler &p = *obs->profiler();
        if (w.detailed())
            led.check(p.fetchSlotsUsed() + p.fetchSlotsLost() ==
                              p.fetchSlotsTotal() &&
                          p.issueSlotsUsed() + p.issueSlotsLost() ==
                              p.issueSlotsTotal(),
                      "profiler slot partition is exact");
        const double fTot = static_cast<double>(p.fetchSlotsTotal());
        const double iTot = static_cast<double>(p.issueSlotsTotal());
        for (int c = 0; c < numSlotCauses; ++c) {
            const SlotCause sc = static_cast<SlotCause>(c);
            res.lostPct.emplace_back(
                "obs.fetch_lost." + ident(slotCauseName(sc)) + "_pct",
                pctOf(static_cast<double>(p.fetchSlotsLost(sc)), fTot));
        }
        for (int c = 0; c < numIssueLosses; ++c) {
            const IssueLoss il = static_cast<IssueLoss>(c);
            res.lostPct.emplace_back(
                "obs.issue_lost." + ident(issueLossName(il)) + "_pct",
                pctOf(static_cast<double>(p.issueSlotsLost(il)), iTot));
        }
    }
    led.progress();

    // Snapshot the end-of-measurement state; equal states must give
    // equal bytes.
    std::vector<std::uint8_t> artifact;
    for (int r = 0; r < plan.saveReps; ++r) {
        Scope s(tr, "snap.save");
        const auto c0 = Clock::now();
        std::vector<std::uint8_t> a = sess->snapshot();
        res.saveS.push_back(secondsBetween(c0, Clock::now()));
        led.op(!a.empty(), "snapshot");
        if (r == 0)
            artifact = std::move(a);
        else
            led.check(a == artifact, "repeated snapshots are identical");
    }
    res.artifactBytes = artifact.size();

    Session::ResumeOptions ro;
    ro.phases = cfg.phases;
    std::unique_ptr<Session> resumed;
    for (int r = 0; r < plan.resumeReps; ++r) {
        if (resumed) {
            Scope s(tr, "harness.teardown");
            resumed.reset();
        }
        Scope s(tr, "snap.resume");
        std::string err;
        const auto c0 = Clock::now();
        resumed = Session::resume(artifact, ro, &err);
        res.resumeS.push_back(secondsBetween(c0, Clock::now()));
        if (!led.op(resumed != nullptr, "resume"))
            std::printf("resume error: %s\n", err.c_str());
    }
    led.progress();

    // Replay: the same K instructions straight through and after
    // resume must produce identical deltas.
    {
        Scope s(tr, "replay");
        auto runK = [&](Session &x, std::string &json) {
            const MetricsSnapshot a = x.capture();
            x.system().run(plan.replayInstrs);
            const MetricsSnapshot d = x.capture().delta(a);
            json = toJson(d);
            return d.core.totalRetired() >= plan.replayInstrs;
        };
        std::string straight, again;
        bool ok = runK(*sess, straight);
        ok = resumed && runK(*resumed, again) && ok;
        led.op(ok && straight == again, "replay check");
    }
    {
        Scope s(tr, "harness.teardown");
        resumed.reset();
        sess.reset();
        obs.reset();
    }
    led.progress();
    return res;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 99;
    int seconds = 30;
    bool trace = false;
    bool smoke = false;
    std::string outDir = ".";
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (!v)
            return false;
        ++i;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atoi(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--out")
            o.outDir = v;
        else
            return false;
    }
    return !o.workload.empty() && o.seconds > 0;
}

void
printMetric(const std::string &name, const Metric &m)
{
    // A digest is compared whole; everything else reads at 6 digits.
    std::printf(m.unit == "hash" ? "  %-36s %.0f %s\n" : "  %-36s %.6g %s\n",
                name.c_str(), m.value, m.unit.c_str());
}

/** End-to-end metrics of an untraced run, pooled over its passes. */
Metrics
endToEnd(const std::vector<PassResult> &passes)
{
    double instrs = 0, secs = 0;
    std::vector<double> chunks, setup, resume;
    for (const PassResult &r : passes) {
        instrs += static_cast<double>(r.measuredInstrs);
        secs += r.measureS;
        // Every seed has as many chunks, so each weighs the same in
        // the pooled percentiles.
        chunks.insert(chunks.end(), r.chunkNsPerInstr.begin(),
                      r.chunkNsPerInstr.end());
        setup.push_back(r.setupS);
        resume.insert(resume.end(), r.resumeS.begin(), r.resumeS.end());
    }
    return {
        {"sim_rate_mips", {instrs / secs / 1e6, "Minstr/s"}},
        {"host_ns_per_instr_p50", {median(chunks), "ns"}},
        {"host_ns_per_instr_p90", {percentile(chunks, 0.9), "ns"}},
        {"setup_s", {median(setup), "s"}},
        // Resumes repeat one operation on states of about one size, so
        // their fastest, like the chunks', filters out host slow-downs.
        {"resume_s", {*std::min_element(resume.begin(), resume.end()), "s"}},
        {"peak_rss_mb", {peakRssMiB(), "MiB"}},
    };
}

/** Simulated results pooled over the passes (exact at a seed). */
Metrics
pooledSimulated(const std::vector<PassResult> &passes)
{
    double instrs = 0, cycles = 0, reqs = 0;
    std::string digests;
    for (const PassResult &r : passes) {
        instrs += static_cast<double>(r.measuredInstrs);
        cycles += r.sim.at("core.cycles").value;
        reqs += r.sim.at("net.requests_served").value;
        digests += std::to_string(static_cast<std::uint64_t>(
                       r.sim.at("model.stats_digest").value)) +
                   ",";
    }
    return {
        {"sim_ipc", {instrs / cycles, "instr/cycle"}},
        {"sim_req_per_mcycle", {1e6 * reqs / cycles, "req/Mcycle"}},
        {"model.stats_digest",
         {static_cast<double>(digest53(digests)), "hash"}},
    };
}

/** Per-layer metrics of a traced run. */
Metrics
perLayer(const Workload &w, const PassResult &u, const PassResult &t)
{
    Metrics out = t.sim;
    out["harness.construct_s"] = {t.constructS, "s"};
    out["harness.startup_s"] = {t.startupS, "s"};
    out["sim.capture_s"] = {t.captureS / 2, "s"};
    out["sim.export_s"] = {t.exportS, "s"};
    out["sim.export_bytes"] = {static_cast<double>(t.exportBytes),
                               "bytes"};
    // Fast-forward and the slot partition are detailed-pipeline
    // notions; a functional run reports them as 0.
    const double coreCycles = static_cast<double>(t.chipCycles) * t.cores;
    const double ticked = coreCycles - static_cast<double>(t.ffCycles);
    out["core.ff_cycles_pct"] = {
        w.detailed() ? pctOf(static_cast<double>(t.ffCycles), coreCycles)
                   : 0.0,
        "%"};
    out["core.host_ns_per_ticked_cycle"] = {
        w.detailed() && ticked > 0 ? 1e9 * t.measureS / ticked : 0.0,
        "ns"};
    for (const auto &kv : t.lostPct)
        out[kv.first] = {w.detailed() ? kv.second : 0.0, "%"};
    out["snap.save_s"] = {median(t.saveS), "s"};
    out["snap.bytes"] = {static_cast<double>(t.artifactBytes), "bytes"};
    const double rateU = static_cast<double>(u.measuredInstrs) / u.measureS;
    const double rateT = static_cast<double>(t.measuredInstrs) / t.measureS;
    out["obs.trace_overhead_pct"] = {100.0 * (rateU / rateT - 1.0), "%"};
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    Workload w;
    if (!parseArgs(argc, argv, o) || !makeWorkload(o.workload, o.smoke, w)) {
        std::fprintf(stderr,
                     "usage: smtosbench --workload <apache-smt|"
                     "apache-cmp4|specint-functional> [--seed N] "
                     "[--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n");
        return 2;
    }

    // --seconds becomes a fixed instruction budget per run, split over
    // the passes and rounds of an untraced run; a traced run spends all
    // of it on each of its two passes at --seed, in one round, so that
    // the profiler sees every chunk once.
    const double budget =
        o.smoke ? 100'000.0 * w.seeds * w.rounds
                : o.seconds * w.nominalMips * 1e6;
    Plan plan;
    plan.rounds = o.trace ? 1 : w.rounds;
    plan.chunks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               budget / static_cast<double>(w.chunkInstrs * w.seeds *
                                            plan.rounds)));
    plan.replayInstrs = 5 * w.chunkInstrs;
    if (o.trace) {
        plan.chunks *= static_cast<std::uint64_t>(w.seeds);
    } else if (!o.smoke) {
        plan.saveReps = 2;
        plan.resumeReps = 6;
    }
    const int passes = o.trace ? 2 : w.seeds;
    std::printf("smtosbench %s seed %" PRIu64 ": %d pass(es) of %" PRIu64
                " chunks of %" PRIu64 " instructions, %d round(s)%s\n",
                w.name.c_str(), o.seed, passes, plan.chunks, w.chunkInstrs,
                plan.rounds, o.trace ? " (untraced, then traced)" : "");
    std::printf("plan operations=%" PRIu64 "\n",
                plan.operations() * static_cast<std::uint64_t>(passes));
    std::fflush(stdout);

    Ledger led;
    Metrics out;
    if (!o.trace) {
        Tracer off(false, 0);
        std::vector<PassResult> rs;
        for (int i = 0; i < w.seeds; ++i) {
            const std::string start =
                plan.rounds > 1 ? o.outDir + "/" + w.name + "-pass" +
                                      std::to_string(i) + "-start.snap"
                                : "";
            rs.push_back(runPass(w, passSeed(o.seed, i), plan, off,
                                 led, "", start));
        }
        for (int round = 1; round < plan.rounds; ++round) {
            for (PassResult &r : rs)
                replayPass(w, r, off, led);
            led.progress();
        }
        for (PassResult &r : rs)
            finishPass(r);
        out = endToEnd(rs);
        std::printf("%-20s %10s %10s %10s %10s  %s\n", "seed", "setup_s",
                    "Minstr/s", "ns/i p50", "ns/i p90",
                    "Minstr/s per round");
        for (const PassResult &r : rs) {
            const double instrs = static_cast<double>(r.measuredInstrs);
            std::printf("%-20" PRIu64 " %10.4f %10.4f %10.2f %10.2f ",
                        r.seed, r.setupS, instrs / r.measureS / 1e6,
                        median(r.chunkNsPerInstr),
                        percentile(r.chunkNsPerInstr, 0.9));
            for (double s : r.roundS)
                std::printf(" %.4f", instrs / s / 1e6);
            std::printf("\n");
        }
        const std::uint64_t pooled = plan.chunks * rs.size();
        std::printf("end-to-end (%zu seeds x %" PRIu64
                    " chunks, best of %d rounds; p90 has %" PRIu64
                    " chunks beyond it):\n",
                    rs.size(), plan.chunks, plan.rounds,
                    pooled - static_cast<std::uint64_t>(std::ceil(
                                 0.9 * static_cast<double>(pooled))));
        for (const auto &kv : out)
            printMetric(kv.first, kv.second);
        std::printf("simulated (exact at a seed):\n");
        const Metrics sim = pooledSimulated(rs);
        for (const auto &kv : sim)
            printMetric(kv.first, kv.second);
        // One pass's window is short enough that some seeds complete no
        // request in it; the run's pooled windows must.
        if (w.apache() && !o.smoke)
            led.check(sim.at("sim_req_per_mcycle").value > 0,
                      "Apache serves requests in the measurement phase");
    } else {
        Tracer off(false, 0);
        PassResult u = runPass(w, o.seed, plan, off, led, "", "");
        finishPass(u);
        Tracer tr(true, 1);
        const std::string stem = o.outDir + "/" + w.name + "-seed" +
                                 std::to_string(o.seed);
        PassResult t = runPass(w, o.seed, plan, tr, led,
                               stem + "-profile.txt", "");
        finishPass(t);
        Metrics sub;
        {
            Scope s(tr, "substrate");
            sub = substrateMetrics(tr, o.smoke ? 1u << 14 : 1u << 20);
        }
        const double wall = tr.now();

        double top = 0;
        for (const Tracer::Span &s : tr.spans())
            if (s.parent < 0)
                top += s.end - s.start;
        const double coverage = top / wall;
        led.check(coverage >= 0.95,
                  "top-level spans cover >= 95% of the traced run");
        for (const auto &kv : u.sim)
            led.check(t.sim.at(kv.first).value == kv.second.value,
                      "traced " + kv.first + " equals untraced");
        led.check(u.artifactBytes == t.artifactBytes,
                  "traced and untraced artifacts have one size");
        if (w.apache() && !o.smoke)
            led.check(u.sim.at("net.requests_served").value > 0,
                      "Apache serves requests in the measurement phase");

        out = perLayer(w, u, t);
        out.insert(sub.begin(), sub.end());
        writeSpans(stem + "-spans.jsonl", tr.spans());
        std::printf("span self time (s); traced run %.3f s, top-level "
                    "spans cover %.2f%%:\n",
                    wall, 100.0 * coverage);
        for (const auto &kv : selfTimes(tr.spans()))
            std::printf("  %-36s %.6f\n", kv.first.c_str(), kv.second);
        std::printf("per-layer:\n");
        for (const auto &kv : out)
            printMetric(kv.first, kv.second);
    }

    const Metric failedPct = {pctOf(static_cast<double>(led.failed),
                                    static_cast<double>(led.attempted)),
                              "%"};
    printMetric("failed_pct", failedPct);
    out["failed_pct"] = failedPct;
    std::printf("RESULT {\"correct\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"metrics\":{",
                led.failed == 0 && led.checksOk ? "true" : "false",
                led.attempted, led.failed);
    bool first = true;
    for (const auto &kv : out) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", kv.first.c_str(), kv.second.value,
                    kv.second.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
