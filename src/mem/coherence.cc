#include "mem/coherence.h"

#include <algorithm>

#include "mem/hierarchy.h"
#include "snap/snapshot.h"

namespace smtos {

Cycle
CoherenceHub::onWrite(int who, Addr paddr)
{
    Cycle extra = 0;
    bool clean_sharers = false;
    bool dirty_remote = false;
    for (int i = 0; i < numCores(); ++i) {
        if (i == who)
            continue;
        Hierarchy *h = cores_[static_cast<std::size_t>(i)];
        ++stats_.snoopProbes;
        if (h->l1d().probe(paddr)) {
            if (h->l1d().snoopInvalidate(paddr)) {
                dirty_remote = true;
                ++stats_.interventionWritebacks;
                extra = std::max(extra, interventionLatency);
            } else {
                clean_sharers = true;
                extra = std::max(extra, upgradeLatency);
            }
            ++stats_.invalidations;
        }
        // Stores to code pages: stale instruction copies go too.
        if (h->l1i().probe(paddr)) {
            h->l1i().snoopInvalidate(paddr);
            ++stats_.invalidations;
            clean_sharers = true;
            extra = std::max(extra, upgradeLatency);
        }
    }
    if (clean_sharers && !dirty_remote)
        ++stats_.upgrades;
    return extra;
}

Cycle
CoherenceHub::onReadMiss(int who, Addr paddr)
{
    Cycle extra = 0;
    for (int i = 0; i < numCores(); ++i) {
        if (i == who)
            continue;
        Hierarchy *h = cores_[static_cast<std::size_t>(i)];
        ++stats_.snoopProbes;
        if (h->l1d().snoopDowngrade(paddr)) {
            ++stats_.downgrades;
            ++stats_.interventionWritebacks;
            extra = std::max(extra, interventionLatency);
        }
    }
    return extra;
}

void
CoherenceHub::dmaInvalidate(Addr paddr)
{
    for (Hierarchy *h : cores_)
        h->l1d().invalidateBlock(paddr);
}

template <typename Ar>
void
CoherenceHub::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.pod(stats_);
}
SMTOS_SNAP_INSTANTIATE(CoherenceHub);

} // namespace smtos
