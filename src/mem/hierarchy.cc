#include "mem/hierarchy.h"

#include <algorithm>

namespace smtos {

Uncore::Uncore(const HierarchyParams &params)
    : l2_(params.l2),
      l2Mshr_("L2-MSHR", params.l2MshrEntries),
      l1l2Bus_("L1-L2", params.l1l2BusBytesPerCycle,
               params.l1l2BusLatency),
      memBus_("memory", params.memBusBytesPerCycle,
              params.memBusLatency),
      memctrl_(params.dram)
{
}

Cycle
Uncore::fill(Addr paddr, const AccessInfo &who, bool is_write,
             Cycle l2Done, int l1LineBytes, bool &l2Hit)
{
    // L2 lookup (address travels the L1-L2 bus; response carries the
    // line back over the same bus).
    const int line = l2_.params().lineBytes;
    CacheOutcome l2_out = l2_.access(paddr, who, is_write);
    l2Hit = l2_out.hit;
    if (l2_out.hit)
        return l1l2Bus_.transfer(l2Done, l1LineBytes);
    MshrGrant g2 = l2Mshr_.request(paddr / static_cast<Addr>(line), l2Done);
    Cycle l2_ready;
    if (g2.merged) {
        l2_ready = std::max(g2.mergedReadyAt, l2Done);
    } else {
        const Cycle req = memBus_.transfer(g2.startAt, 8);
        const Cycle mem_done = memctrl_.access(paddr, who, req);
        l2_ready = memBus_.transfer(mem_done, line);
        l2Mshr_.complete(paddr / static_cast<Addr>(line), g2.startAt,
                         l2_ready);
        l2missIntegral_ += static_cast<double>(l2_ready - g2.startAt);
        if (l2_out.dirtyEviction)
            memBus_.transfer(l2_ready, line);
    }
    return l1l2Bus_.transfer(l2_ready, l1LineBytes);
}

void
Uncore::dmaWrite(Addr paddr, int bytes)
{
    const int line = l2_.params().lineBytes;
    for (Addr a = paddr; a < paddr + static_cast<Addr>(bytes);
         a += static_cast<Addr>(line)) {
        l2_.invalidateBlock(a);
        hub_.dmaInvalidate(a);
    }
}

Hierarchy::Hierarchy(const HierarchyParams &params, Uncore &uncore)
    : params_(params),
      uncore_(uncore),
      coreId_(uncore.coherence().attach(this)),
      l1i_(params.l1i),
      l1d_(params.l1d),
      l1Mshr_("L1-MSHR", params.l1MshrEntries),
      storeBuffer_(params.storeBufferEntries)
{
}

MemResult
Hierarchy::missPath(Cache &l1, Addr paddr, const AccessInfo &who,
                    bool is_write, Cycle now, bool is_ifetch)
{
    MemResult res;
    const Addr block = paddr / static_cast<Addr>(l1.params().lineBytes);

    MshrGrant grant = l1Mshr_.request(block, now);
    if (grant.merged) {
        res.readyAt = std::max(grant.mergedReadyAt,
                               now + params_.l1HitLatency);
        return res;
    }
    Cycle start = grant.startAt;
    // Snoop the other cores before the shared level answers: a remote
    // Modified copy must write back first (intervention).
    if (!is_write)
        start += uncore_.coherence().onReadMiss(coreId_, paddr);

    const Cycle fill_at =
        uncore_.fill(paddr, who, is_write, start + params_.l2Latency,
                     l1.params().lineBytes, res.l2Hit);
    res.readyAt = fill_at + params_.l1FillPenalty;
    l1Mshr_.complete(block, start, res.readyAt);
    if (is_ifetch)
        imissIntegral_ += static_cast<double>(res.readyAt - start);
    else
        dmissIntegral_ += static_cast<double>(res.readyAt - start);
    return res;
}

MemResult
Hierarchy::data(Addr paddr, const AccessInfo &who, bool is_write,
                Cycle now)
{
    if (params_.filterPrivileged && who.isKernel()) {
        MemResult res;
        res.l1Hit = true;
        res.readyAt = now + params_.l1HitLatency;
        return res;
    }

    CacheOutcome out = l1d_.access(paddr, who, is_write);
    if (out.hit) {
        MemResult res;
        res.l1Hit = true;
        const Cycle fill = l1Mshr_.hitUnderFill(
            paddr / static_cast<Addr>(l1d_.params().lineBytes), now);
        res.readyAt = std::max(now + params_.l1HitLatency, fill);
        // A store hitting a clean (Shared) line must still own it:
        // invalidate remote copies and pay the upgrade broadcast.
        if (is_write)
            res.readyAt += uncore_.coherence().onWrite(coreId_, paddr);
        return res;
    }
    if (out.dirtyEviction)
        uncore_.l1l2Bus().transfer(now, l1d_.params().lineBytes);
    if (is_write) {
        // Store misses allocate without fetching the line from
        // memory (write-validate, as the Alpha's write buffers and
        // write hints achieve): the L2 is probed/allocated for tag
        // state, but no DRAM round trip or MSHR entry is consumed.
        // The store buffer hides the L2 write latency.
        uncore_.l2().access(paddr, who, true);
        MemResult res;
        res.readyAt = now + params_.l2Latency +
                      uncore_.coherence().onWrite(coreId_, paddr);
        return res;
    }
    return missPath(l1d_, paddr, who, is_write, now, false);
}

MemResult
Hierarchy::fetch(Addr paddr, const AccessInfo &who, Cycle now)
{
    if (params_.filterPrivileged && who.isKernel()) {
        MemResult res;
        res.l1Hit = true;
        res.readyAt = now + params_.l1HitLatency;
        return res;
    }

    CacheOutcome out = l1i_.access(paddr, who, false);
    if (out.hit) {
        MemResult res;
        res.l1Hit = true;
        const Cycle fill = l1Mshr_.hitUnderFill(
            paddr / static_cast<Addr>(l1i_.params().lineBytes), now);
        res.readyAt = std::max(now + params_.l1HitLatency, fill);
        return res;
    }
    return missPath(l1i_, paddr, who, false, now, true);
}

void
Hierarchy::warmFetch(Addr paddr, const AccessInfo &who)
{
    if (params_.filterPrivileged && who.isKernel())
        return;
    if (!l1i_.access(paddr, who, false).hit)
        uncore_.l2().access(paddr, who, false);
}

void
Hierarchy::warmData(Addr paddr, const AccessInfo &who, bool is_write)
{
    if (params_.filterPrivileged && who.isKernel())
        return;
    if (!l1d_.access(paddr, who, is_write).hit)
        uncore_.l2().access(paddr, who, is_write);
}

void
Hierarchy::flushIcache()
{
    l1i_.invalidateAll();
}

} // namespace smtos
