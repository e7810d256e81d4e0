#include "harness/env.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/params.h"
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

/** Variable @p var: a key=value grammar when T is a parameter struct,
 *  else one value (common/params.h). Fatal when malformed. */
template <typename T>
std::optional<T>
parseVar(const EnvOverrides::Lookup &get, const char *var)
{
    const char *v = get(var);
    if (!v)
        return std::nullopt;
    Parsed<T> r;
    if constexpr (std::is_class_v<T>)
        r = parseParams<T>(v);
    else if (!parseValue(v, r.value))
        r.error = std::string("bad value '") + v + "'";
    if (!r.error.empty())
        smtos_fatal("%s: %s", var, r.error.c_str());
    return r.value;
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
    ov.jobs = parseVar<unsigned>(get, "SMTOS_JOBS").value_or(0);
    ov.faults = parseVar<FaultParams>(get, "SMTOS_FAULTS");
    ov.openLoop = parseVar<OpenLoopParams>(get, "SMTOS_OPENLOOP");
    ov.admit = parseVar<AdmitParams>(get, "SMTOS_ADMIT");
    if (const char *v = get("SMTOS_FIDELITY")) {
        for (Fidelity f : {Fidelity::Detailed, Fidelity::Functional})
            if (std::strcmp(v, fidelityName(f)) == 0)
                ov.fidelity = f;
        if (!ov.fidelity)
            smtos_fatal("SMTOS_FIDELITY: bad value '%s'", v);
    }
    ov.sample = parseVar<SampleParams>(get, "SMTOS_SAMPLE");
    ov.cores = parseVar<int>(get, "SMTOS_CORES");
    if (ov.cores && (*ov.cores < 1 || *ov.cores > 16))
        smtos_fatal("SMTOS_CORES: expected 1..16, got %d", *ov.cores);
    if (const char *v = get("SMTOS_PROFILE"); truthy(v)) {
        ov.obs.profile = true;
        // Any value other than a plain switch is the report path.
        const std::string s(v);
        if (s != "1" && s != "true" && s != "yes")
            ov.obs.reportPath = s;
    }
    if (const auto iv = parseVar<Cycle>(get, "SMTOS_INTERVAL"))
        ov.obs.intervalCycles = *iv;
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
