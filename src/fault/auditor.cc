#include "fault/auditor.h"

#include <sstream>

#include "common/logging.h"
#include "mem/hierarchy.h"
#include "sim/system.h"

namespace smtos {

InvariantAuditor::InvariantAuditor(System &sys, Cycle every)
    : sys_(sys), every_(every ? every : 1), nextAt_(every_)
{
}

void
InvariantAuditor::maybeCheck(Cycle now)
{
    if (now < nextAt_)
        return;
    nextAt_ = now + every_;
    ++checks_;
    const std::string report = checkNow();
    if (!report.empty())
        smtos_panic("invariant audit failed at cycle %llu:\n%s",
                    static_cast<unsigned long long>(now),
                    report.c_str());
}

std::string
InvariantAuditor::checkNow() const
{
    std::ostringstream os;
    const Cycle now = sys_.pipeline().now();
    for (int c = 0; c < sys_.numCores(); ++c) {
        std::ostringstream core;
        core << sys_.pipeline(c).auditInvariants();
        const Hierarchy &h = sys_.hierarchy(c);
        const int l1 = h.l1Mshr().outstanding(now);
        if (l1 < 0 || l1 > h.l1Mshr().size())
            core << "L1 MSHR outstanding " << l1 << " outside [0, "
                 << h.l1Mshr().size() << "]\n";
        const int sb = h.storeBuffer().occupancy(now);
        if (sb < 0 || sb > h.storeBuffer().size())
            core << "store buffer occupancy " << sb << " outside [0, "
                 << h.storeBuffer().size() << "]\n";
        std::istringstream lines(core.str());
        for (std::string line; std::getline(lines, line);)
            os << "core " << c << ": " << line << "\n";
    }
    os << sys_.kernel().auditInvariants();
    const MshrFile &l2 = sys_.uncore().l2Mshr();
    const int l2n = l2.outstanding(now);
    if (l2n < 0 || l2n > l2.size())
        os << "L2 MSHR outstanding " << l2n << " outside [0, "
           << l2.size() << "]\n";
    return os.str();
}

} // namespace smtos
