/**
 * @file
 * Graceful-degradation study: the Apache-like server under increasing
 * packet loss. For each loss rate the sweep reports throughput, p99
 * request latency, retransmits, and backpressure drops — the
 * robustness counterpart of the paper's throughput tables.
 *
 * Also the CI soak driver: `fault_sweep --soak` runs one long Apache
 * leg under the SMTOS_FAULTS plan (or a canned 1%-loss + machine-check
 * plan when unset) with the invariant auditor and the co-simulation
 * oracle armed, and fails loudly if the server stops serving or the
 * architectural stream diverges.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/table.h"
#include "fault/auditor.h"
#include "fault/diag.h"
#include "fault/fault.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/parallel.h"
#include "sim/config.h"
#include "sim/system.h"
#include "workload/apache.h"

using namespace smtos;

namespace {

struct SweepPoint
{
    double loss = 0.0;
    std::uint64_t requests = 0;
    double throughput = 0.0; ///< requests per million cycles
    double p99 = 0.0;
    FaultCounters counters;
};

SweepPoint
runPoint(double loss, Cycle cycles)
{
    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    cfg.kernel.web.retryTimeout = 30000;
    System sys(cfg);

    FaultParams fp;
    fp.lossPct = loss;
    std::unique_ptr<FaultPlan> plan;
    if (fp.any()) {
        plan = std::make_unique<FaultPlan>(fp);
        sys.attachFaults(plan.get());
    }

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    sys.start();
    sys.runCycles(cycles);

    SweepPoint pt;
    pt.loss = loss;
    pt.requests = sys.kernel().requestsServed();
    pt.throughput =
        1e6 * static_cast<double>(pt.requests) /
        static_cast<double>(cycles);
    pt.p99 = sys.kernel().clients().latency().p99();
    pt.counters = sys.kernel().faultCounters();
    return pt;
}

int
soak()
{
    FaultParams fp =
        EnvOverrides::ambient().faults.value_or(FaultParams{});
    if (!fp.any()) {
        fp.lossPct = 0.01;
        fp.mcePeriod = 25000;
        fp.auditEvery = 5000;
    }
    std::printf("soak: loss=%.3f mce=%llu audit=%llu\n", fp.lossPct,
                static_cast<unsigned long long>(fp.mcePeriod),
                static_cast<unsigned long long>(fp.auditEvery));

    MachineConfig cfg = smtConfig();
    cfg.kernel.seed = 11;
    cfg.kernel.enableNetwork = true;
    cfg.kernel.web.retryTimeout = 30000;
    System sys(cfg);

    FaultPlan plan(fp);
    sys.attachFaults(&plan);
    std::unique_ptr<InvariantAuditor> auditor;
    if (fp.auditEvery > 0) {
        auditor = std::make_unique<InvariantAuditor>(sys,
                                                     fp.auditEvery);
        sys.kernel().setAuditor(auditor.get());
    }
    diagArm(&sys, &plan);

    ApacheWorkload w = buildApache(ApacheParams{});
    installApache(sys.kernel(), w);
    Cosim cosim(sys.pipes());
    sys.start();
    sys.runCycles(2'000'000);

    const FaultCounters c = sys.kernel().faultCounters();
    std::printf("soak: served=%llu injected=%llu retransmits=%llu "
                "kills=%llu cosim_checked=%llu\n",
                static_cast<unsigned long long>(
                    sys.kernel().requestsServed()),
                static_cast<unsigned long long>(
                    plan.injected().total()),
                static_cast<unsigned long long>(c.retransmits),
                static_cast<unsigned long long>(c.mceKills),
                static_cast<unsigned long long>(cosim.checked()));

    int rc = 0;
    if (cosim.diverged()) {
        std::printf("soak: FAIL cosim diverged\n%s\n",
                    cosim.report().c_str());
        diagWriteBundle("soak: cosim divergence");
        rc = 1;
    }
    if (sys.kernel().requestsServed() == 0) {
        std::printf("soak: FAIL no requests served\n");
        diagWriteBundle("soak: zero throughput");
        rc = 1;
    }
    diagArm(nullptr, nullptr);
    if (rc == 0)
        std::printf("soak: OK\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    EnvOverrides::fromEnvironment().install();

    if (argc > 1 && std::strcmp(argv[1], "--soak") == 0)
        return soak();

    std::printf("smtos fault sweep: Apache under packet loss\n");
    const double rates[] = {0.0, 0.005, 0.01, 0.02, 0.05};
    // Long enough to amortize the server boot phase (the first
    // request completes around cycle 900k).
    const Cycle cycles = 3'000'000;

    TextTable t("graceful degradation vs packet loss");
    t.header({"loss %", "requests", "req/Mcycle", "p99 latency",
              "retransmits", "aborts", "syn drops"});
    std::printf("csv: loss,requests,throughput,p99,retransmits,"
                "aborts,syn_drops\n");
    // Each point is an independent system; run them on the worker
    // pool and report in rate order.
    std::vector<SweepPoint> points(std::size(rates));
    parallelFor(points.size(), [&](std::size_t i) {
        points[i] = runPoint(rates[i], cycles);
    });
    for (const SweepPoint &p : points) {
        const double loss = p.loss;
        t.row({TextTable::num(100.0 * loss, 1),
               TextTable::num(p.requests),
               TextTable::num(p.throughput, 1),
               TextTable::num(p.p99, 0),
               TextTable::num(p.counters.retransmits),
               TextTable::num(p.counters.clientAborts),
               TextTable::num(p.counters.synDrops)});
        std::printf("csv: %.3f,%llu,%.2f,%.0f,%llu,%llu,%llu\n", loss,
                    static_cast<unsigned long long>(p.requests),
                    p.throughput, p.p99,
                    static_cast<unsigned long long>(
                        p.counters.retransmits),
                    static_cast<unsigned long long>(
                        p.counters.clientAborts),
                    static_cast<unsigned long long>(
                        p.counters.synDrops));
    }
    t.print();
    return 0;
}
