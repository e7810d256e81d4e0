#include "harness/session.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/auditor.h"
#include "fault/diag.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "obs/reqtrace.h"
#include "obs/session.h"
#include "sim/config.h"
#include "sim/system.h"
#include "snap/snapshot.h"
#include "snap/sysstate.h"

namespace smtos {

namespace {

/** Config-section layout version (independent of the machine
 *  sections' per-class versions). */
constexpr std::uint32_t configSectionVersion = 4;

/** Cosim-oracle section layout version. */
constexpr std::uint32_t cosimSectionVersion = 1;

/** Optional trailing request-tracer section. */
constexpr std::uint32_t reqtraceSectionVersion = 1;

/**
 * The CFG section's field list, in artifact order: everything that
 * rebuilds the machine, its workload, fault plan, overload knobs and
 * fidelity. Both snapshot() and resume() walk this one list, @p f
 * writing or reading each field through the archive's io(), so the
 * two sides cannot drift. The parameter structs bring their own lists
 * (common/params.h).
 */
template <typename C, typename F>
void
configFields(C &cfg, F &&f)
{
    auto members = [&f](const char *, auto &...m) { (f(m), ...); };
    auto &sc = cfg.system;
    f(sc.smt);
    f(sc.withOs);
    f(sc.filterKernelRefs);
    f(sc.topology.cores);
    f(sc.topology.contextsPerCore);
    f(sc.fetchContexts);
    f(sc.roundRobinFetch);
    f(sc.affinitySched);
    f(sc.sharedTlbIpr);
    f(sc.fastForward);
    f(sc.memLatency);
    auto &dp = sc.dram;
    f(dp.banked);
    f(dp.channels);
    f(dp.ranks);
    f(dp.banksPerRank);
    f(dp.rowBytes);
    f(dp.burstBytes);
    f(dp.queueDepth);
    f(dp.closedPage);
    f(dp.tRcd);
    f(dp.tRp);
    f(dp.tCas);
    f(dp.tBurst);
    f(dp.tFaw);
    AdmitParams::fields(sc.admit, members);

    auto &wc = cfg.workload;
    f(wc.kind);
    f(wc.spec.numApps);
    f(wc.spec.inputChunks);
    f(wc.spec.heapBase);
    f(wc.spec.heapStep);
    f(wc.spec.seed);
    f(wc.apache.numServers);
    f(wc.apache.heapBytes);
    f(wc.apache.seed);
    OpenLoopParams::fields(wc.openLoop, members);
    f(wc.seed);

    FaultParams::fields(cfg.faults, members);

    f(cfg.fidelity);
    SampleParams::fields(cfg.sample, members);
}

MachineConfig
machineConfigOf(const SystemConfig &sc, const WorkloadConfig &wc)
{
    MachineConfig cfg = sc.smt ? smtConfig() : superscalarConfig();
    cfg.kernel.seed = wc.seed;
    cfg.kernel.appOnly = !sc.withOs;
    cfg.kernel.enableNetwork =
        (wc.kind == WorkloadConfig::Kind::Apache);
    cfg.kernel.openLoop = wc.openLoop;
    cfg.kernel.admit = sc.admit;
    cfg.mem.filterPrivileged = sc.filterKernelRefs;
    cfg.mem.dramLatency = sc.memLatency;
    cfg.mem.dram = sc.dram;
    cfg.cores = sc.topology.cores;
    if (sc.topology.contextsPerCore > 0) {
        cfg.core.numContexts = sc.topology.contextsPerCore;
        cfg.core.fetchContexts =
            std::min(2, sc.topology.contextsPerCore);
    }
    // At least one netisr per core so protocol processing can be
    // delivered core-locally (the kernel pins netisr i to core i%N).
    cfg.kernel.numNetisr =
        std::max(cfg.kernel.numNetisr, sc.topology.cores);
    if (sc.fetchContexts > 0)
        cfg.core.fetchContexts = sc.fetchContexts;
    if (sc.roundRobinFetch)
        cfg.core.fetchPolicy = FetchPolicy::RoundRobin;
    cfg.kernel.sharedTlbIpr = sc.sharedTlbIpr;
    if (sc.affinitySched)
        cfg.kernel.schedPolicy = Kernel::SchedPolicy::Affinity;
    return cfg;
}

} // namespace

Session::Session(const Config &cfg) : Session(cfg, true, false) {}

Session::Session(const Config &cfg, bool consultAmbient, bool forcePlan)
    : cfg_(cfg)
{
    const EnvOverrides &env = EnvOverrides::ambient();
    // The installed environment fills in what the config left at its
    // default: explicit config wins, and only fresh sessions consult
    // it (resumed sessions take everything from the artifact). It
    // applies before validate(), so an override faces the same checks
    // as the config itself, and before the System is built, so
    // machineConfigOf() sees it.
    if (consultAmbient) {
        if (cfg_.system.topology.cores == 1 && env.cores)
            cfg_.system.topology.cores = *env.cores;
        if (!cfg_.faultPlan && !cfg_.faults.any() && env.faults)
            cfg_.faults = *env.faults;
        if (!cfg_.workload.openLoop.enabled && env.openLoop)
            cfg_.workload.openLoop = *env.openLoop;
        if (!cfg_.system.admit.enabled() && env.admit)
            cfg_.system.admit = *env.admit;
        if (cfg_.fidelity == Fidelity::Detailed && env.fidelity)
            cfg_.fidelity = *env.fidelity;
        if (!cfg_.sample.enabled && env.sample)
            cfg_.sample = *env.sample;
    }

    // Fault injection: an explicit plan wins, then the config's
    // params. The plan's params face validate() like the config's.
    if (cfg_.faultPlan)
        cfg_.faults = cfg_.faultPlan->params();
    validate();
    plan_ = cfg_.faultPlan;
    if (!plan_ && (cfg_.faults.any() || forcePlan)) {
        ownedPlan_ = std::make_unique<FaultPlan>(cfg_.faults);
        plan_ = ownedPlan_.get();
    }

    sys_ = std::make_unique<System>(
        machineConfigOf(cfg_.system, cfg_.workload));
    for (int c = 0; c < sys_->numCores(); ++c) {
        sys_->pipeline(c).setFastForward(cfg_.system.fastForward);
        if (cfg_.fidelity == Fidelity::Functional)
            sys_->pipeline(c).setFidelity(Fidelity::Functional);
        if (cfg_.system.filterKernelRefs)
            sys_->pipeline(c).setFilterPrivilegedBranches(true);
    }

    // Observability: an explicit session wins; otherwise honor the
    // installed environment so any tool can be instrumented without
    // code changes.
    obs_ = cfg_.obs;
    if (!obs_ && consultAmbient && env.obs.any()) {
        ownedObs_ = std::make_unique<ObsSession>(env.obs);
        obs_ = ownedObs_.get();
    }
    if (obs_)
        obs_->attach(*sys_);

    // Attach before start() so the connection-table override takes
    // effect and the netisr/idle boot is covered.
    if (plan_) {
        sys_->attachFaults(plan_);
        if (plan_->params().auditEvery > 0) {
            auditor_ = std::make_unique<InvariantAuditor>(
                *sys_, plan_->params().auditEvery);
            sys_->kernel().setAuditor(auditor_.get());
        }
    }
    diagArm(sys_.get(), plan_);

    if (cfg_.workload.kind == WorkloadConfig::Kind::SpecInt) {
        SpecIntParams p = cfg_.workload.spec;
        p.seed ^= cfg_.workload.seed;
        specW_ = sharedSpecInt(p);
        installSpecInt(sys_->kernel(), *specW_);
    } else {
        ApacheParams p = cfg_.workload.apache;
        p.seed ^= cfg_.workload.seed;
        apacheW_ = sharedApache(p);
        installApache(sys_->kernel(), *apacheW_);
    }

    // The oracle must observe the initial thread binds in start().
    // One oracle covers every core: checkers are per thread, and the
    // chip-shared seq counter keeps per-thread seqs monotone across
    // cross-core migration.
    if (cfg_.cosim)
        cosim_ = std::make_unique<Cosim>(sys_->pipes());

    sys_->start();
    atBuild_ = MetricsSnapshot::capture(*sys_);
}

Session::~Session()
{
    if (obs_)
        obs_->finish();
    diagArm(nullptr, nullptr);
}

void
Session::validate() const
{
    const SystemConfig &sc = cfg_.system;
    const TopologyConfig &tp = sc.topology;
    if (tp.contextsPerCore < 0 || tp.contextsPerCore > 64)
        smtos_fatal("Session: contextsPerCore %d out of range",
                    tp.contextsPerCore);
    if (tp.cores < 1 || tp.cores > 16)
        smtos_fatal("Session: cores %d out of range (1..16)",
                    tp.cores);
    if (tp.cores > 1 && !sc.smt)
        smtos_fatal("Session: the CMP is built from SMT cores; the "
                    "superscalar baseline is single-core");
    if (tp.cores > 1 && !sc.withOs)
        smtos_fatal("Session: cores > 1 needs the OS model (the SMP "
                    "kernel owns cross-core scheduling)");
    if (tp.cores > 1 && cfg_.fidelity != Fidelity::Detailed)
        smtos_fatal("Session: cores > 1 runs detailed only (the "
                    "functional engine models one core)");
    if (tp.cores > 1 && cfg_.sample.enabled)
        smtos_fatal("Session: sampled measurement is single-core");
    if (sc.fetchContexts < 0)
        smtos_fatal("Session: negative fetchContexts");
    if (tp.contextsPerCore > 0 &&
        sc.fetchContexts > tp.contextsPerCore)
        smtos_fatal("Session: fetchContexts %d exceeds "
                    "contextsPerCore %d",
                    sc.fetchContexts, tp.contextsPerCore);
    if (!sc.smt && tp.contextsPerCore > 1)
        smtos_fatal("Session: the superscalar baseline has exactly "
                    "one context");
    if (cfg_.phases.measureInstrs == 0)
        smtos_fatal("Session: measureInstrs must be nonzero");
    if (sc.memLatency == 0)
        smtos_fatal("Session: memLatency must be nonzero");
    const DramParams &dp = sc.dram;
    auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };
    if (dp.channels <= 0 || dp.ranks <= 0 || dp.banksPerRank <= 0)
        smtos_fatal("Session: DRAM geometry must be nonzero "
                    "(channels %d, ranks %d, banksPerRank %d)",
                    dp.channels, dp.ranks, dp.banksPerRank);
    if (!pow2(dp.channels) || !pow2(dp.ranks) ||
        !pow2(dp.banksPerRank) || !pow2(dp.rowBytes) ||
        !pow2(dp.burstBytes))
        smtos_fatal("Session: DRAM geometry must be powers of two "
                    "(channels %d, ranks %d, banksPerRank %d, "
                    "rowBytes %d, burstBytes %d)",
                    dp.channels, dp.ranks, dp.banksPerRank,
                    dp.rowBytes, dp.burstBytes);
    if (dp.rowBytes < dp.burstBytes)
        smtos_fatal("Session: DRAM rowBytes %d smaller than "
                    "burstBytes %d",
                    dp.rowBytes, dp.burstBytes);
    if (dp.queueDepth <= 0)
        smtos_fatal("Session: DRAM queueDepth must be nonzero");
    // The parameter structs' range rules, as their grammars apply them.
    for (const std::string &err :
         {cfg_.faults.check(), sc.admit.check(),
          cfg_.workload.openLoop.check(), cfg_.sample.check()})
        if (!err.empty())
            smtos_fatal("Session: %s", err.c_str());
    if (cfg_.workload.openLoop.enabled &&
        cfg_.workload.kind != WorkloadConfig::Kind::Apache)
        smtos_fatal("Session: open-loop arrivals need the Apache "
                    "workload (there are no clients otherwise)");
    if (cfg_.sample.enabled) {
        if (cfg_.phases.windowInstrs > 0)
            smtos_fatal("Session: sampled measurement and windowed "
                        "measurement are mutually exclusive");
        if (cfg_.fidelity == Fidelity::Functional)
            smtos_fatal("Session: sampled measurement drives fidelity "
                        "itself; configure Detailed");
    }
}

void
Session::attachObs(ObsSession &obs)
{
    smtos_assert(!obs_);
    obs_ = &obs;
    obs_->attach(*sys_);
}

MetricsSnapshot
Session::capture() const
{
    return MetricsSnapshot::capture(*sys_);
}

void
Session::runStartup()
{
    if (startupDone_)
        return;
    startupDone_ = true;
    const MetricsSnapshot s0 = capture();
    if (cfg_.phases.startupInstrs > 0) {
        sys_->run(cfg_.phases.startupInstrs);
    } else if (cfg_.workload.kind == WorkloadConfig::Kind::SpecInt) {
        const std::uint64_t chunk = 200'000;
        std::uint64_t guard = 0;
        while (!sys_->kernel().startupComplete() && guard < 400) {
            sys_->run(chunk);
            ++guard;
        }
        if (guard >= 400)
            smtos_warn("start-up did not complete within guard");
    }
    startupDelta_ = capture().delta(s0);
}

RunResult
Session::runMeasurement()
{
    RunResult res;
    res.startup = startupDelta_;
    const MetricsSnapshot s1 = capture();

    if (cfg_.sample.enabled) {
        // SMARTS sampled measurement: the driver alternates fidelity
        // itself; steady still covers the whole sampled phase so
        // architectural counts (instructions, mode mix) stay exact.
        res.sample = runSampledMeasurement(*sys_, cfg_.sample,
                                           cfg_.phases.measureInstrs);
        res.steady = capture().delta(s1);
    } else if (obs_ && obs_->wantsIntervals()) {
        // Cycle-driven interval sampling: advance in fixed steps and
        // emit one time-series row per step until the instruction
        // budget is retired. Deterministic for a given seed/config.
        const Cycle iv = obs_->intervalCycles();
        const std::uint64_t target =
            s1.core.totalRetired() + cfg_.phases.measureInstrs;
        MetricsSnapshot prev = s1;
        int idx = 0;
        int stuck = 0;
        while (prev.core.totalRetired() < target) {
            const Cycle c0 = sys_->pipeline().now();
            sys_->runCycles(iv);
            MetricsSnapshot cur = capture();
            obs_->interval(idx++, c0, sys_->pipeline().now(),
                           cur.delta(prev));
            if (cur.core.totalRetired() == prev.core.totalRetired()) {
                if (++stuck >= 1000)
                    smtos_panic("interval sampling made no progress "
                                "for %d intervals",
                                stuck);
            } else {
                stuck = 0;
            }
            prev = cur;
        }
        res.steady = capture().delta(s1);
    } else if (cfg_.phases.windowInstrs > 0) {
        MetricsSnapshot prev = s1;
        std::uint64_t done = 0;
        while (done < cfg_.phases.measureInstrs) {
            const std::uint64_t step =
                std::min(cfg_.phases.windowInstrs,
                         cfg_.phases.measureInstrs - done);
            sys_->run(step);
            done += step;
            MetricsSnapshot cur = capture();
            res.windows.push_back(cur.delta(prev));
            prev = cur;
        }
        res.steady = capture().delta(s1);
    } else {
        sys_->run(cfg_.phases.measureInstrs);
        res.steady = capture().delta(s1);
    }

    res.requestsServed = sys_->kernel().requestsServed();
    res.cycles = sys_->pipeline().now();
    if (cosim_ && cosim_->diverged())
        smtos_panic("cosim divergence:\n%s",
                    cosim_->report().c_str());
    if (obs_)
        obs_->finish();
    return res;
}

RunResult
Session::run()
{
    runStartup();
    return runMeasurement();
}

// --- snapshot/restore ---

std::vector<std::uint8_t>
Session::snapshot()
{
    Snapshotter sp;
    sp.beginSection("CFG ", configSectionVersion);
    configFields(cfg_, [&sp](const auto &v) { sp.io(v); });
    sp.io(plan_ != nullptr);
    sp.io(cosim_ != nullptr);
    sp.endSection();
    snapMachineSections(sp, *sys_, plan_);
    // The oracle rides behind the machine sections: its reference
    // cores sit at the retire point, which no machine section holds.
    sp.beginSection("COSM", cosimSectionVersion);
    if (cosim_)
        cosim_->snap(sp, collectImages(*sys_));
    sp.endSection();
    // Tracer state is observability, not machine state: only traced
    // sessions carry it, as a trailing section.
    if (obs_ && obs_->reqtrace()) {
        sp.beginSection("RQTR", reqtraceSectionVersion);
        obs_->reqtrace()->snap(sp);
        sp.endSection();
    }
    return sp.finish();
}

std::unique_ptr<Session>
Session::resume(const std::vector<std::uint8_t> &artifact,
                const ResumeOptions &opts, std::string *error)
{
    Restorer rs(artifact);
    if (!rs.ok()) {
        if (error)
            *error = rs.error();
        return nullptr;
    }
    const std::uint32_t cv = rs.enterSection("CFG ");
    if (cv != configSectionVersion) {
        if (error)
            *error = "snapshot rejected: config section version " +
                     std::to_string(cv) + " (supported " +
                     std::to_string(configSectionVersion) + ")";
        return nullptr;
    }
    Config cfg;
    configFields(cfg, [&rs](auto &v) { rs.io(v); });
    bool hadPlan = false, hadCosim = false;
    rs.io(hadPlan);
    rs.io(hadCosim);
    rs.endSection();

    // The oracle's retire-point state only exists in the artifact if
    // the originating session ran under co-simulation; a fresh oracle
    // cannot be synthesized mid-flight (in-flight instructions would
    // retire against state it never saw).
    if (opts.cosim && !hadCosim) {
        if (error)
            *error = "snapshot rejected: resume requested "
                     "co-simulation but the artifact was captured "
                     "without an oracle";
        return nullptr;
    }

    // Apply the policy-only overrides (they never change structure,
    // so the artifact's state still fits the rebuilt machine).
    cfg.phases = opts.phases;
    cfg.obs = nullptr;
    cfg.cosim = opts.cosim;
    if (opts.roundRobinFetch)
        cfg.system.roundRobinFetch = *opts.roundRobinFetch;
    if (opts.affinitySched)
        cfg.system.affinitySched = *opts.affinitySched;
    if (opts.sharedTlbIpr)
        cfg.system.sharedTlbIpr = *opts.sharedTlbIpr;
    if (opts.dramClosedPage)
        cfg.system.dram.closedPage = *opts.dramClosedPage;

    // Rebuild from the artifact's own config (never the ambient
    // environment), then overlay the saved machine state.
    std::unique_ptr<Session> s(new Session(cfg, false, hadPlan));
    snapMachineSections(rs, *s->sys_, s->plan_);
    // Load the oracle last: it wholesale-replaces the sync noise the
    // machine restore just fed it (resyncThreads targets the fetch
    // point; the oracle must resume from the retire point).
    rs.beginSection("COSM", cosimSectionVersion);
    if (s->cosim_)
        s->cosim_->snap(rs, collectImages(*s->sys_));
    else
        rs.skipRest();
    rs.endSection();
    // Trailing tracer state (present only when the saving session
    // traced). Restored into the resuming session's tracer when it has
    // one, so in-flight spans complete across the boundary; skipped
    // (but still consumed) otherwise.
    if (!rs.atEnd()) {
        rs.beginSection("RQTR", reqtraceSectionVersion);
        if (opts.obs && opts.obs->reqtrace())
            opts.obs->reqtrace()->snap(rs);
        else
            rs.skipRest();
        rs.endSection();
    }
    // Overload and fidelity overrides land on the restored machine:
    // the fig_overload_knee pattern resumes one closed-loop start-up
    // snapshot into many open-loop/admission operating points, and
    // one detailed start-up snapshot can resume into functional
    // fast-forward or sampled measurement (or back to detailed).
    if (opts.openLoop) {
        s->cfg_.workload.openLoop = *opts.openLoop;
        s->sys_->kernel().setOpenLoop(*opts.openLoop);
    }
    if (opts.admit) {
        s->cfg_.system.admit = *opts.admit;
        s->sys_->kernel().setAdmission(*opts.admit);
    }
    if (opts.fidelity) {
        s->cfg_.fidelity = *opts.fidelity;
        for (Pipeline *p : s->sys_->pipes())
            p->setFidelity(*opts.fidelity);
    }
    if (opts.sample)
        s->cfg_.sample = *opts.sample;
    // The overrides face the same checks as a fresh config.
    s->validate();
    s->startupDone_ = true; // the artifact is past its start-up
    if (opts.obs)
        s->attachObs(*opts.obs);
    return s;
}

} // namespace smtos
