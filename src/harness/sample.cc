#include "harness/sample.h"

#include <cmath>

#include "common/logging.h"
#include "core/pipeline.h"
#include "sim/metrics.h"
#include "sim/system.h"

namespace smtos {

namespace {

/** Mean ± z·s/√n over @p xs (sample std-dev; half-width 0 for n<2). */
SampleEstimate
estimate(const std::vector<double> &xs, double z)
{
    SampleEstimate e;
    const std::size_t n = xs.size();
    if (n == 0)
        return e;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    e.mean = sum / static_cast<double>(n);
    if (n < 2)
        return e;
    double ss = 0.0;
    for (double x : xs)
        ss += (x - e.mean) * (x - e.mean);
    const double var = ss / static_cast<double>(n - 1);
    e.halfWidth = z * std::sqrt(var / static_cast<double>(n));
    return e;
}

} // namespace

double
confidenceZ(double confidence)
{
    if (confidence >= 0.985)
        return 2.576; // 99%
    if (confidence >= 0.925)
        return 1.96;  // 95%
    return 1.645;     // 90%
}

SampleReport
runSampledMeasurement(System &sys, const SampleParams &p,
                      std::uint64_t totalInstrs)
{
    Pipeline &pipe = sys.pipeline();
    smtos_assert(p.check().empty());
    const std::uint64_t ffInstrs =
        p.periodInstrs - p.warmInstrs - p.intervalInstrs;

    SampleReport rep;
    rep.enabled = true;
    rep.confidence = p.confidence;
    const FidelityStats func0 = pipe.fidelityStats();
    const std::uint64_t ret0 = pipe.stats().totalRetired();
    const Cycle cyc0 = pipe.now();

    std::vector<double> cpi, ipc, user, kernel, pal, idle;
    std::uint64_t done = 0;
    while (done < totalInstrs) {
        if (ffInstrs > 0) {
            // Functional fast-forward: warming only, clock still
            // ticking (timer interrupts and scheduling continue).
            const std::uint64_t n =
                std::min(ffInstrs, totalInstrs - done);
            pipe.setFidelity(Fidelity::Functional);
            sys.run(n);
            pipe.setFidelity(Fidelity::Detailed);
            done += n;
            if (done >= totalInstrs)
                break;
        }
        if (p.warmInstrs > 0) {
            // Detailed warm-up: refills the timing structures the
            // functional engine leaves cold; metrics discarded.
            const std::uint64_t n =
                std::min(p.warmInstrs, totalInstrs - done);
            sys.run(n);
            done += n;
            if (done >= totalInstrs)
                break;
        }
        const std::uint64_t n =
            std::min(p.intervalInstrs, totalInstrs - done);
        const MetricsSnapshot before = MetricsSnapshot::capture(sys);
        sys.run(n);
        done += n;
        const MetricsSnapshot d =
            MetricsSnapshot::capture(sys).delta(before);
        const double retired =
            static_cast<double>(d.core.totalRetired());
        const double cycles = static_cast<double>(d.core.cycles);
        if (retired <= 0.0 || cycles <= 0.0)
            continue;
        const ModeShares m = modeShares(d);
        cpi.push_back(cycles / retired);
        ipc.push_back(retired / cycles);
        user.push_back(m.userPct);
        kernel.push_back(m.kernelPct);
        pal.push_back(m.palPct);
        idle.push_back(m.idlePct);
    }

    const double z = confidenceZ(p.confidence);
    rep.intervals = static_cast<int>(cpi.size());
    rep.cpi = estimate(cpi, z);
    rep.ipc = estimate(ipc, z);
    rep.userPct = estimate(user, z);
    rep.kernelPct = estimate(kernel, z);
    rep.palPct = estimate(pal, z);
    rep.idlePct = estimate(idle, z);
    rep.intervalCpi = std::move(cpi);
    rep.functionalInstrs = pipe.fidelityStats().funcInstrs - func0.funcInstrs;
    rep.functionalCycles = pipe.fidelityStats().funcCycles - func0.funcCycles;
    const std::uint64_t allInstrs = pipe.stats().totalRetired() - ret0;
    const Cycle allCycles = pipe.now() - cyc0;
    rep.detailedInstrs = allInstrs - rep.functionalInstrs;
    rep.detailedCycles = allCycles - rep.functionalCycles;
    return rep;
}

} // namespace smtos
