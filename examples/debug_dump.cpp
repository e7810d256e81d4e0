/**
 * @file
 * Inspection tool: run a workload and dump the full diagnostic
 * profile (service-tag shares, MM entries, syscall counts, TLB and
 * cache interference breakdowns, fetch-stall mix).
 *
 * Usage: debug_dump [s|a] [startup-instrs|1=auto] [measure-instrs]
 *                   [m|s(uperscalar)] [-|a(pp-only)]
 */
#include <cstdio>
#include <cstdlib>

#include "harness/env.h"
#include "harness/session.h"
#include "kernel/tags.h"

using namespace smtos;

int
main(int argc, char **argv)
{
    EnvOverrides::fromEnvironment().install();

    Session::Config spec;
    spec.workload.kind = (argc > 1 && argv[1][0] == 'a')
                             ? WorkloadConfig::Kind::Apache
                             : WorkloadConfig::Kind::SpecInt;
    spec.phases.startupInstrs =
        argc > 2 ? std::atoll(argv[2]) : 500'000;
    if (spec.phases.startupInstrs == 1)
        spec.phases.startupInstrs = 0; // auto
    spec.phases.measureInstrs =
        argc > 3 ? std::atoll(argv[3]) : 500'000;
    if (argc > 4 && argv[4][0] == 's')
        spec.system.smt = false;
    if (argc > 5 && argv[5][0] == 'a')
        spec.system.withOs = false;
    spec.workload.spec.inputChunks = 48;
    RunResult res = Session(spec).run();

    const MetricsSnapshot &d = res.steady;
    std::printf("retired: total=%llu\n",
                (unsigned long long)d.core.totalRetired());
    for (int t = 0; t < NumServiceTags; ++t) {
        double s = tagSharePct(d, t);
        if (s > 0.1)
            std::printf("  tag %-14s %6.2f%%\n", serviceTagName(t), s);
    }
    std::printf("mm entries:\n");
    for (auto &kv : d.mmEntries)
        std::printf("  %-14s %llu\n", kv.first.c_str(),
                    (unsigned long long)kv.second);
    std::printf("syscalls:\n");
    for (auto &kv : d.syscalls)
        std::printf("  %-14s %llu\n", kv.first.c_str(),
                    (unsigned long long)kv.second);
    std::printf("dtlb: user acc=%llu miss=%llu  kern acc=%llu miss=%llu\n",
                (unsigned long long)d.dtlb.accesses[0],
                (unsigned long long)d.dtlb.misses[0],
                (unsigned long long)d.dtlb.accesses[1],
                (unsigned long long)d.dtlb.misses[1]);
    std::printf("squashed=%llu fetched=%llu wrongpath=%llu\n",
                (unsigned long long)d.core.squashed,
                (unsigned long long)d.core.fetched,
                (unsigned long long)d.core.fetchedWrongPath);
    std::printf("switches=%llu\n",
                (unsigned long long)d.contextSwitches);
    const ArchMetrics a = archMetrics(d);
    std::printf("cycles=%llu ipc=%.3f\n",
                (unsigned long long)d.core.cycles, a.ipc);
    std::printf("0fetch=%.1f%% 0issue=%.1f%% maxissue=%.1f%% "
                "fetchable=%.2f\n",
                a.zeroFetchPct, a.zeroIssuePct, a.maxIssuePct,
                a.fetchableContexts);
    std::printf("out_imiss=%.2f out_dmiss=%.2f out_l2=%.2f\n",
                a.outstandingImiss, a.outstandingDmiss,
                a.outstandingL2miss);
    std::printf("l1i=%.2f%% l1d=%.2f%% l2=%.2f%% btb=%.1f%% "
                "bp=%.1f%%\n",
                a.l1iMissPct, a.l1dMissPct, a.l2MissPct, a.btbMissPct,
                a.branchMispredPct);
    auto dump_struct = [](const char *name,
                          const InterferenceStats &s) {
        std::printf("%s: user %llu/%llu (%.1f%%) kern %llu/%llu "
                    "(%.1f%%)\n",
                    name, (unsigned long long)s.misses[0],
                    (unsigned long long)s.accesses[0],
                    s.accesses[0] ? 100.0 * s.misses[0] / s.accesses[0]
                                  : 0.0,
                    (unsigned long long)s.misses[1],
                    (unsigned long long)s.accesses[1],
                    s.accesses[1] ? 100.0 * s.misses[1] / s.accesses[1]
                                  : 0.0);
        const char *cn[] = {"compulsory", "intra", "inter", "ukern",
                            "osinval"};
        for (int k = 0; k < numMissCauses; ++k)
            std::printf("    %-10s u=%llu k=%llu\n", cn[k],
                        (unsigned long long)s.cause[0][k],
                        (unsigned long long)s.cause[1][k]);
    };
    dump_struct("L1D", d.l1d);
    dump_struct("L1I", d.l1i);
    dump_struct("L2", d.l2);
    std::printf("fetch stalls:\n");
    for (auto &kv : d.core.kernelEntries.all())
        if (kv.second != 0)
            std::printf("  %-14s %llu\n", kv.first.c_str(),
                        (unsigned long long)kv.second);
    return 0;
}
