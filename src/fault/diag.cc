#include "fault/diag.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/trace.h"
#include "fault/fault.h"
#include "sim/system.h"

namespace smtos {

namespace {

// Thread-local so every parallel-runner worker can arm diagnostics
// for its own experiment; the crash hook is thread-local too.
thread_local System *armedSys = nullptr;
thread_local FaultPlan *armedPlan = nullptr;
thread_local bool writing = false;

void
crashHookTrampoline(const char *reason)
{
    diagWriteBundle(reason);
}

} // namespace

void
diagArm(System *sys, FaultPlan *plan)
{
    armedSys = sys;
    armedPlan = plan;
    setCrashHook(sys ? &crashHookTrampoline : nullptr);
}

namespace {
std::string configuredDiagDir = "smtos-diag";
} // namespace

void
diagSetDir(const std::string &dir)
{
    configuredDiagDir = dir.empty() ? "smtos-diag" : dir;
}

std::string
diagDir()
{
    return configuredDiagDir;
}

std::string
diagWriteBundle(const char *reason)
{
    if (!armedSys || writing)
        return {};
    writing = true;
    const std::string dir = diagDir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        writing = false;
        return {};
    }
    {
        std::ofstream os(dir + "/crash.txt");
        os << (reason ? reason : "(no reason)") << "\n";
    }
    {
        std::ofstream os(dir + "/contexts.txt");
        for (int c = 0; c < armedSys->numCores(); ++c) {
            os << "== core " << c << " ==\n";
            armedSys->pipeline(c).dumpState(os);
            os << "\n";
        }
        armedSys->kernel().dumpState(os);
    }
    if (armedPlan) {
        std::ofstream os(dir + "/faultlog.txt");
        armedPlan->writeLog(os);
    }
    {
        std::ofstream os(dir + "/ring.txt");
        Trace::dumpRing(os);
    }
    smtos_inform("diagnostics bundle written to %s/", dir.c_str());
    writing = false;
    return dir;
}

} // namespace smtos
