#include "fault/fault.h"

#include <ostream>
#include <sstream>

namespace smtos {

namespace {

/** Bound the in-memory fault log so long soaks stay cheap. */
constexpr std::size_t maxLogEvents = 1u << 16;

} // namespace

bool
FaultParams::any() const
{
    return lossPct > 0.0 || reorderPct > 0.0 || delayMax > 0 ||
           nicDropPct > 0.0 || mcePeriod > 0 || mceBreakRecovery ||
           connTableSize > 0 || listenBacklog > 0 || auditEvery > 0;
}

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::PktLoss:     return "pkt_loss";
      case FaultKind::PktDelay:    return "pkt_delay";
      case FaultKind::PktReorder:  return "pkt_reorder";
      case FaultKind::NicIntrDrop: return "nic_intr_drop";
      case FaultKind::MceTlb:      return "mce_tlb";
      case FaultKind::MceCache:    return "mce_cache";
      case FaultKind::MceSilent:   return "mce_silent";
      case FaultKind::MceKill:     return "mce_kill";
      case FaultKind::SynDrop:     return "syn_drop";
      case FaultKind::BacklogDrop: return "backlog_drop";
    }
    return "?";
}

FaultPlan::FaultPlan(const FaultParams &p)
    : p_(p), rngLink_(mixHash(p.seed, 0x11aaull)),
      rngMce_(mixHash(p.seed, 0x22bbull))
{
    if (p_.mcePeriod > 0) {
        // First injection somewhere in [period/2, 3*period/2); the
        // schedule only ever consumes the dedicated MCE stream, so it
        // is a pure function of (seed, period) — independent of both
        // the workload and the link fault stream.
        nextMceAt_ = p_.mcePeriod / 2 + 1 +
                     static_cast<Cycle>(rngMce_.below(p_.mcePeriod));
    }
}

std::uint64_t
FaultPlan::takeMce(Cycle now)
{
    (void)now;
    const std::uint64_t pick = rngMce_.next();
    nextMceAt_ += p_.mcePeriod / 2 + 1 +
                  static_cast<Cycle>(rngMce_.below(p_.mcePeriod));
    return pick;
}

void
FaultPlan::note(Cycle cycle, FaultKind k, std::uint64_t a,
                std::uint64_t b)
{
    switch (k) {
      case FaultKind::PktLoss:     ++c_.pktLost; break;
      case FaultKind::PktDelay:    ++c_.pktDelayed; break;
      case FaultKind::PktReorder:  ++c_.pktReordered; break;
      case FaultKind::NicIntrDrop: ++c_.nicIntrDrops; break;
      case FaultKind::MceTlb:
      case FaultKind::MceCache:
      case FaultKind::MceSilent:   ++c_.mceRaised; break;
      case FaultKind::MceKill:     ++c_.mceKills; break;
      case FaultKind::SynDrop:     ++c_.synDrops; break;
      case FaultKind::BacklogDrop: ++c_.backlogDrops; break;
    }
    if (log_.size() >= maxLogEvents) {
        ++logOverflow_;
        return;
    }
    log_.push_back(FaultEvent{cycle, k, a, b});
}

void
FaultPlan::writeLog(std::ostream &os) const
{
    for (const FaultEvent &e : log_)
        os << e.cycle << " " << faultKindName(e.kind) << " " << e.a
           << " " << e.b << "\n";
    if (logOverflow_ > 0)
        os << "# " << logOverflow_ << " events beyond the "
           << maxLogEvents << "-entry log cap\n";
}

std::string
FaultPlan::logText() const
{
    std::ostringstream os;
    writeLog(os);
    return os.str();
}

} // namespace smtos
