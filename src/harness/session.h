/**
 * @file
 * The experiment Session API.
 *
 * A Session composes three orthogonal config structs — SystemConfig
 * (the machine), WorkloadConfig (what runs on it, with its seed), and
 * RunPhases (how long each phase runs) — validates them, builds the
 * System, installs the workload, wires observability / fault
 * injection / co-simulation, and owns everything for the run's
 * lifetime.
 *
 * Snapshot/restore: snapshot() serializes the complete simulated
 * state (see snap/sysstate.h) plus a config section, into a single
 * versioned artifact. resume() rebuilds a Session from the artifact's
 * own config — so structural mismatch is impossible — overlays the
 * saved state, and continues bit-identically: running N instructions
 * after restore produces byte-identical metrics, timeline, and fault
 * log to running them straight through. ResumeOptions supplies the
 * new phases/sinks and may flip policy-only knobs (fetch policy,
 * scheduler affinity, TLB-IPR sharing, DRAM row-buffer policy).
 */

#ifndef SMTOS_HARNESS_SESSION_H
#define SMTOS_HARNESS_SESSION_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness/sample.h"
#include "kernel/admission.h"
#include "mem/memctrl.h"
#include "net/clients.h"
#include "sim/metrics.h"
#include "workload/apache.h"
#include "workload/specint.h"

namespace smtos {

class Cosim;
class InvariantAuditor;
class ObsSession;
class System;

/**
 * Chip topology: how many SMT cores the machine instantiates, and how
 * many hardware contexts each core carries. Every width builds the
 * same chip — private L1s/TLBs per core, a shared L2 with MESI
 * coherence, and an SMP kernel (per-core run queues, TLB shootdown
 * IPIs); cores = 1, the default, is the paper's machine. The
 * SMTOS_CORES environment variable overrides cores for fresh sessions
 * that left it at the default.
 */
struct TopologyConfig
{
    int cores = 1;           ///< chip width (1..16)
    int contextsPerCore = 0; ///< 0 = keep the preset's value
};

/** The simulated machine, independent of what runs on it. */
struct SystemConfig
{
    bool smt = true;          ///< false: superscalar baseline
    bool withOs = true;       ///< false: application-only (Table 4)
    bool filterKernelRefs = false; ///< Table 9 reference filter
    /** Cores x contexts-per-core (the redesigned knob; the old
     *  numContexts field is topology.contextsPerCore). */
    TopologyConfig topology;
    /** Optional overrides (0 = keep the preset's value). */
    int fetchContexts = 0;
    bool roundRobinFetch = false;
    bool affinitySched = false;
    bool sharedTlbIpr = false;
    /** Banked-DRAM geometry/policy; dram.banked=false keeps the flat
     *  model and is bit-identical to the pre-banked machine. */
    DramParams dram;
    /** Accept-queue admission control + accounted mbuf pool; the
     *  default (policy None, accounting off) is bit-identical to the
     *  pre-overload machine. */
    AdmitParams admit;
};

/** What runs on the machine, with the run's seed. */
struct WorkloadConfig
{
    enum class Kind { SpecInt, Apache };
    Kind kind = Kind::SpecInt;
    SpecIntParams spec;
    ApacheParams apache;
    /** Open-loop client arrivals (Apache only; default off keeps the
     *  closed-loop SPECWeb model bit-identical). */
    OpenLoopParams openLoop;
    std::uint64_t seed = 99;
};

/** Phase lengths in retired instructions. */
struct RunPhases
{
    /**
     * Start-up phase length. 0 for SPECInt means "run until every app
     * finished its input reads".
     */
    std::uint64_t startupInstrs = 0;
    std::uint64_t measureInstrs = 2'000'000;
    /** When nonzero, split measurement into windows of this size. */
    std::uint64_t windowInstrs = 0;
};

/** Phase deltas of one run. */
struct RunResult
{
    MetricsSnapshot startup;  ///< the start-up interval
    MetricsSnapshot steady;   ///< the measurement interval
    std::vector<MetricsSnapshot> windows;
    std::uint64_t requestsServed = 0;
    Cycle cycles = 0;
    /** Sampled-measurement estimates (sample.enabled when the SMARTS
     *  driver ran; steady then covers the whole sampled phase). */
    SampleReport sample;
};

/** One built-and-started experiment. */
class Session
{
  public:
    struct Config
    {
        SystemConfig system;
        WorkloadConfig workload;
        RunPhases phases;

        /**
         * Fault injection: the session builds and owns a plan exactly
         * when @c faults configures anything (or, left at its default,
         * the installed EnvOverrides ambient does); faultPlan() reads
         * it.
         */
        FaultParams faults{};

        /**
         * Observability session (not owned; covers exactly one run).
         * When null, the installed EnvOverrides ambient is consulted.
         * Also attachable later via attachObs() — e.g. at the
         * measurement boundary, so a restored run's sinks see the
         * same event stream as a straight-through run's.
         */
        ObsSession *obs = nullptr;

        /**
         * Execution fidelity of the whole run (DESIGN.md §15).
         * Functional executes with warming only: instruction counts
         * and mode breakdowns keep architectural meaning, cycle
         * counts do not. Sampled runs leave this Detailed and set
         * @c sample instead.
         */
        Fidelity fidelity = Fidelity::Detailed;

        /**
         * SMARTS sampled measurement: fast-forward functionally,
         * warm, measure a detailed interval, repeat. Replaces the
         * plain measurement loop; mutually exclusive with
         * phases.windowInstrs.
         */
        SampleParams sample{};

        /**
         * Attach a co-simulation oracle before the system starts.
         * Retired instructions are checked against the functional
         * reference model; divergence is fatal at run() end. Also
         * keeps per-thread committed registers live, so snapshots
         * taken from a cosim session restore into cosim sessions.
         */
        bool cosim = false;
    };

    /** What a resumed run does (the artifact supplies the rest). */
    struct ResumeOptions
    {
        RunPhases phases;
        ObsSession *obs = nullptr;
        bool cosim = false;
        /** Policy-only overrides; unset keeps the artifact's value. */
        std::optional<bool> roundRobinFetch;
        std::optional<bool> affinitySched;
        std::optional<bool> sharedTlbIpr;
        /** Row-buffer policy is timing-only: bank/queue state in the
         *  artifact fits either setting. */
        std::optional<bool> dramClosedPage;
        /**
         * Overload overrides: resume a (typically closed-loop)
         * start-up snapshot into open-loop load and/or under an
         * admission policy — the fig_overload_knee pattern. Applied
         * over the artifact's restored state.
         */
        std::optional<OpenLoopParams> openLoop;
        std::optional<AdmitParams> admit;
        /**
         * Fidelity/sampling overrides, applied over the artifact's
         * restored state: resume a detailed start-up snapshot into a
         * functional fast-forward or a sampled measurement (or force
         * a functional-mode artifact back to detailed).
         */
        std::optional<Fidelity> fidelity;
        std::optional<SampleParams> sample;
    };

    /** Validate, build, install the workload, and start. */
    explicit Session(const Config &cfg);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Run the start-up phase (idempotent; at most once). */
    void runStartup();

    /**
     * Run the measurement phase and return the deltas: steady (and
     * windows / interval rows when configured), plus this session's
     * start-up delta when runStartup() ran.
     */
    RunResult runMeasurement();

    /** runStartup() + runMeasurement(). */
    RunResult run();

    /**
     * Serialize the complete simulated state into one artifact.
     * Deterministic: equal states produce equal bytes.
     */
    std::vector<std::uint8_t> snapshot();

    /**
     * Rebuild a Session from @p artifact and continue bit-identically.
     * Returns nullptr (with @p error set when non-null) on a corrupt,
     * truncated, or format-version-mismatched artifact.
     */
    static std::unique_ptr<Session>
    resume(const std::vector<std::uint8_t> &artifact,
           const ResumeOptions &opts, std::string *error = nullptr);

    /** Attach observability after construction (once, not owned). */
    void attachObs(ObsSession &obs);

    System &system() { return *sys_; }
    const Config &config() const { return cfg_; }
    FaultPlan *faultPlan() { return plan_.get(); }
    Cosim *cosim() { return cosim_.get(); }

    /** Capture the current absolute metrics. */
    MetricsSnapshot capture() const;

  private:
    Session(const Config &cfg, bool consultAmbient);

    void validate() const;

    Config cfg_;
    /** The workload's code images (one of the two is set), shared
     *  with every live Session of the same workload params. Declared
     *  before sys_, whose processes point into them. */
    std::shared_ptr<const SpecIntWorkload> specW_;
    std::shared_ptr<const ApacheWorkload> apacheW_;
    std::unique_ptr<System> sys_;
    std::unique_ptr<FaultPlan> plan_;
    std::unique_ptr<ObsSession> ownedObs_;
    ObsSession *obs_ = nullptr;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<Cosim> cosim_;
    MetricsSnapshot atBuild_;
    MetricsSnapshot startupDelta_;
    bool startupDone_ = false;
};

} // namespace smtos

#endif // SMTOS_HARNESS_SESSION_H
