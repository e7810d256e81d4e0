#include "harness/sweep.h"

#include "common/logging.h"
#include "harness/parallel.h"

namespace smtos {

std::vector<RunResult>
runSweep(const SweepGroup &group, unsigned jobs)
{
    std::vector<std::uint8_t> artifact;
    {
        // The base session exists only to produce the shared
        // snapshot; destroy it (and release its machine) before the
        // fan-out so the peak footprint is points, not points + 1.
        // Its code images go with it: points that resume at once
        // share one new build of each (isa/imagetable.h).
        Session base(group.base);
        base.runStartup();
        artifact = base.snapshot();
    }

    std::vector<RunResult> results(group.points.size());
    parallelFor(
        group.points.size(),
        [&](std::size_t i) {
            std::string err;
            auto s =
                Session::resume(artifact, group.points[i].opts, &err);
            if (!s)
                smtos_fatal("sweep point '%s': %s",
                            group.points[i].label.c_str(),
                            err.c_str());
            results[i] = s->runMeasurement();
        },
        jobs);
    return results;
}

std::vector<std::vector<RunResult>>
runSweepGroups(const std::vector<SweepGroup> &groups, unsigned jobs)
{
    std::vector<std::vector<RunResult>> results;
    results.reserve(groups.size());
    for (const SweepGroup &g : groups)
        results.push_back(runSweep(g, jobs));
    return results;
}

} // namespace smtos
