/**
 * @file
 * The single place SMTOS_* environment variables are read.
 *
 * Library code never calls getenv: a tool's main() (or the test
 * driver's main) parses the environment once with fromEnvironment()
 * and calls install(), which applies the process-wide settings (trace
 * mask/sink, crash-diagnostics directory, parallel-runner job count)
 * and publishes the ambient observability/fault defaults that Session
 * falls back to when a run configures neither explicitly.
 *
 * Variables (numbers and grammars follow common/params.h's value rules;
 * a malformed value is fatal, exit 1, and names the variable):
 *   SMTOS_TRACE / SMTOS_TRACE_FILE   trace categories and sink path
 *   SMTOS_DIAG_DIR                   crash-bundle directory
 *   SMTOS_JOBS                       parallel runner worker count
 *   SMTOS_FAULTS                     fault plan (FaultParams::fields)
 *   SMTOS_OPENLOOP                   open-loop client arrivals
 *                                    (OpenLoopParams::fields)
 *   SMTOS_ADMIT                      accept-queue admission control
 *                                    (AdmitParams::fields)
 *   SMTOS_FIDELITY                   execution fidelity
 *                                    ("detailed" | "functional")
 *   SMTOS_SAMPLE                     SMARTS sampled measurement
 *                                    (SampleParams::fields)
 *   SMTOS_CORES                      chip width (TopologyConfig.cores;
 *                                    applies when the config left it
 *                                    at its default of one core)
 *   SMTOS_PROFILE, SMTOS_INTERVAL, SMTOS_INTERVAL_JSONL,
 *   SMTOS_INTERVAL_CSV, SMTOS_TIMELINE, SMTOS_TIMELINE_DETAIL,
 *   SMTOS_REQTRACE, SMTOS_REQTRACE_FILE
 *                                    observability sinks (ObsConfig)
 */

#ifndef SMTOS_HARNESS_ENV_H
#define SMTOS_HARNESS_ENV_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "fault/fault.h"
#include "harness/sample.h"
#include "kernel/admission.h"
#include "net/clients.h"
#include "obs/session.h"

namespace smtos {

/** Everything the SMTOS_* environment can override (an empty
 *  optional: the variable was not set). */
struct EnvOverrides
{
    ObsConfig obs;            ///< obs.any() == false when unset
    std::optional<FaultParams> faults;
    std::optional<OpenLoopParams> openLoop;
    std::optional<AdmitParams> admit;
    std::optional<Fidelity> fidelity;
    std::optional<SampleParams> sample;
    std::optional<int> cores; ///< chip width
    unsigned jobs = 0;        ///< 0: unset, or the default count
    std::optional<std::string> diagDir;
    std::optional<std::uint32_t> traceMask;
    std::string traceFile;

    /** Variable lookup: returns the value or nullptr (like getenv). */
    using Lookup = std::function<const char *(const char *)>;

    /** Parse from an arbitrary lookup (unit-testable, no getenv). */
    static EnvOverrides fromLookup(const Lookup &get);

    /** Parse from the real process environment. */
    static EnvOverrides fromEnvironment();

    /**
     * Apply process-wide settings (trace, diag dir, default jobs) and
     * publish this object as the ambient defaults (see ambient()).
     */
    void install() const;

    /**
     * The last installed overrides. Defaults to an empty object when
     * nothing was installed, so library behavior without a main()
     * calling install() is "no environment".
     */
    static const EnvOverrides &ambient();
};

} // namespace smtos

#endif // SMTOS_HARNESS_ENV_H
