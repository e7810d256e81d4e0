#include "sim/export.h"

#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace smtos {

namespace {

/** Whether an optional object appears. Each is left out when its
 *  subsystem was off, and cores[]/smp on one core, where they would
 *  only repeat the top-level counters and zeros; such runs export the
 *  paper machine's key set. */
bool
shown(const MetricsSnapshot &d, std::string_view key)
{
    if (key == "dram")
        return d.dram.banked;
    if (key == "latency" || key == "retried_latency")
        return d.latency.count > 0 || d.retriedLatency.count > 0;
    if (key == "reqtrace")
        return d.reqtrace.enabled != 0;
    if (key == "overload")
        return d.overload.enabled;
    if (key == "fidelity")
        return d.fidelity.enabled();
    if (key == "cores" || key == "smp")
        return d.cores.size() > 1;
    return true;
}

/** The per-core rows: derived values plus the private structures. */
void
writeCoreRows(std::ostream &os, const std::vector<CoreSlice> &cores)
{
    os << "[";
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const CoreSlice &s = cores[c];
        os << (c ? "," : "") << "{\"cycles\":" << s.core.cycles
           << ",\"instructions\":" << s.core.totalRetired()
           << ",\"ipc\":" << s.core.ipc() << ",\"retired\":";
        writeCounterJson(os, s.core.retired);
        os << ",\"lock_spin_cycles\":" << s.lockSpinCycles
           << ",\"l1i\":";
        writeCounterJson(os, s.l1i);
        os << ",\"l1d\":";
        writeCounterJson(os, s.l1d);
        os << ",\"dtlb\":";
        writeCounterJson(os, s.dtlb);
        os << "}";
    }
    os << "]";
}

} // namespace

void
writeJsonFields(std::ostream &os, const MetricsSnapshot &d)
{
    const ArchMetrics a = archMetrics(d);
    const ModeShares m = modeShares(d);
    os << "\"cycles\":" << d.core.cycles << ",";
    os << "\"instructions\":" << d.core.totalRetired() << ",";
    os << "\"ipc\":" << a.ipc << ",";
    os << "\"modes\":{\"user\":" << m.userPct
       << ",\"kernel\":" << m.kernelPct << ",\"pal\":" << m.palPct
       << ",\"idle\":" << m.idlePct << "},";
    os << "\"rates\":{\"l1i\":" << a.l1iMissPct
       << ",\"l1d\":" << a.l1dMissPct << ",\"l2\":" << a.l2MissPct
       << ",\"itlb\":" << a.itlbMissPct
       << ",\"dtlb\":" << a.dtlbMissPct
       << ",\"btb\":" << a.btbMissPct
       << ",\"br_mispred\":" << a.branchMispredPct
       << ",\"squashed\":" << a.squashedPct << "},";
    os << "\"fetch\":{\"zero_fetch\":" << a.zeroFetchPct
       << ",\"zero_issue\":" << a.zeroIssuePct
       << ",\"max_issue\":" << a.maxIssuePct
       << ",\"fetchable\":" << a.fetchableContexts << "},";
    os << "\"outstanding\":{\"imiss\":" << a.outstandingImiss
       << ",\"dmiss\":" << a.outstandingDmiss
       << ",\"l2miss\":" << a.outstandingL2miss << "},";
    os << "\"tags\":{";
    bool first = true;
    for (int t = 0; t < NumServiceTags; ++t) {
        if (d.core.retiredByTag[t] == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << serviceTagName(t)
           << "\":" << d.core.retiredByTag[t];
    }
    os << "}";
    MetricsSnapshot::fields(
        [&](auto key, const auto &v) {
            if constexpr (!std::is_null_pointer_v<decltype(key)>) {
                if (!shown(d, key))
                    return;
                os << ",\"" << key << "\":";
                if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                             std::vector<CoreSlice>>)
                    writeCoreRows(os, v);
                else
                    writeCounterJson(os, v);
            }
        },
        d);
}

void
writeJson(std::ostream &os, const MetricsSnapshot &d)
{
    os << "{";
    writeJsonFields(os, d);
    os << "}";
}

std::string
toJson(const MetricsSnapshot &d)
{
    std::ostringstream os;
    writeJson(os, d);
    return os.str();
}

void
writeCsvRow(std::ostream &os, const std::string &label,
            const MetricsSnapshot &d, bool with_header)
{
    if (with_header) {
        os << "label,cycles,instructions,ipc,user_pct,kernel_pct,"
              "pal_pct,idle_pct,l1i_miss,l1d_miss,l2_miss,itlb_miss,"
              "dtlb_miss,br_mispred,squashed_pct\n";
    }
    const ArchMetrics a = archMetrics(d);
    const ModeShares m = modeShares(d);
    os << label << "," << d.core.cycles << ","
       << d.core.totalRetired() << "," << a.ipc << "," << m.userPct
       << "," << m.kernelPct << "," << m.palPct << "," << m.idlePct
       << "," << a.l1iMissPct << "," << a.l1dMissPct << ","
       << a.l2MissPct << "," << a.itlbMissPct << ","
       << a.dtlbMissPct << "," << a.branchMispredPct << ","
       << a.squashedPct << "\n";
}

} // namespace smtos
