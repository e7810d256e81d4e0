#include "harness/env.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/trace.h"
#include "fault/diag.h"
#include "harness/parallel.h"

namespace smtos {

namespace {

EnvOverrides &
ambientSlot()
{
    static EnvOverrides ambient;
    return ambient;
}

bool
truthy(const char *v)
{
    return v && *v && std::strcmp(v, "0") != 0 &&
           std::strcmp(v, "false") != 0 && std::strcmp(v, "no") != 0;
}

} // namespace

EnvOverrides
EnvOverrides::fromLookup(const Lookup &get)
{
    EnvOverrides ov;
    if (const char *v = get("SMTOS_TRACE"))
        ov.traceMask = Trace::parseCats(v);
    if (const char *v = get("SMTOS_TRACE_FILE"))
        ov.traceFile = v;
    if (const char *v = get("SMTOS_DIAG_DIR"))
        ov.diagDir = v;
    if (const char *v = get("SMTOS_JOBS")) {
        const long n = std::strtol(v, nullptr, 10);
        ov.jobs = n >= 1 ? static_cast<unsigned>(n) : 1;
    }
    if (const char *v = get("SMTOS_FAULTS"))
        ov.faults = FaultParams::fromString(v);
    if (const char *v = get("SMTOS_OPENLOOP"))
        ov.openLoop = OpenLoopParams::fromString(v);
    if (const char *v = get("SMTOS_ADMIT"))
        ov.admit = AdmitParams::fromString(v);
    if (const char *v = get("SMTOS_FIDELITY")) {
        if (std::strcmp(v, "functional") == 0)
            ov.fidelity = Fidelity::Functional;
        else if (std::strcmp(v, "detailed") == 0)
            ov.fidelity = Fidelity::Detailed;
        else
            smtos_fatal("SMTOS_FIDELITY: expected 'detailed' or "
                        "'functional', got '%s'", v);
    }
    if (const char *v = get("SMTOS_SAMPLE"))
        ov.sample = SampleParams::fromString(v);
    if (const char *v = get("SMTOS_CORES")) {
        const long n = std::strtol(v, nullptr, 10);
        if (n < 1 || n > 16)
            smtos_fatal("SMTOS_CORES: expected 1..16, got '%s'", v);
        ov.cores = static_cast<int>(n);
    }
    if (const char *v = get("SMTOS_PROFILE"); truthy(v)) {
        ov.obs.profile = true;
        // Any value other than a plain switch is the report path.
        const std::string s(v);
        if (s != "1" && s != "true" && s != "yes")
            ov.obs.reportPath = s;
    }
    if (const char *v = get("SMTOS_INTERVAL"))
        ov.obs.intervalCycles =
            static_cast<Cycle>(std::strtoull(v, nullptr, 10));
    if (const char *v = get("SMTOS_INTERVAL_JSONL"))
        ov.obs.intervalJsonlPath = v;
    if (const char *v = get("SMTOS_INTERVAL_CSV"))
        ov.obs.intervalCsvPath = v;
    if (const char *v = get("SMTOS_TIMELINE"))
        ov.obs.timelinePath = v;
    ov.obs.timelineDetail = truthy(get("SMTOS_TIMELINE_DETAIL"));
    if (truthy(get("SMTOS_REQTRACE")))
        ov.obs.reqtrace = true;
    if (const char *v = get("SMTOS_REQTRACE_FILE")) {
        ov.obs.reqtrace = true;
        ov.obs.reqtraceFilePath = v;
    }
    return ov;
}

EnvOverrides
EnvOverrides::fromEnvironment()
{
    return fromLookup(
        [](const char *name) { return std::getenv(name); });
}

void
EnvOverrides::install() const
{
    if (traceMask)
        Trace::setMask(*traceMask);
    if (!traceFile.empty())
        Trace::setFileSink(traceFile);
    if (diagDir)
        diagSetDir(*diagDir);
    if (jobs > 0)
        setDefaultJobs(jobs);
    ambientSlot() = *this;
}

const EnvOverrides &
EnvOverrides::ambient()
{
    return ambientSlot();
}

} // namespace smtos
