/**
 * @file
 * snap(Ar&) field lists for every small stateful class (the archive
 * vocabulary is in snap/snapshot.h). Each blob starts with the class's
 * snapVersion tag; containers with nondeterministic iteration order
 * (unordered maps) are serialized sorted by key so identical simulated
 * state always produces identical artifact bytes. Host-side
 * accelerator caches (AddrSpace translation cache, TLB lookup hints)
 * are not serialized: they are validated before use, so restoring them
 * cold is bit-identical to restoring them warm.
 */

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "bp/btb.h"
#include "bp/mcfarling.h"
#include "bp/ras.h"
#include "common/counters.h"
#include "common/stats.h"
#include "fault/fault.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/hierarchy.h"
#include "mem/memctrl.h"
#include "mem/missclass.h"
#include "mem/mshr.h"
#include "mem/storebuffer.h"
#include "net/clients.h"
#include "net/network.h"
#include "snap/snapshot.h"
#include "vm/addrspace.h"
#include "vm/physmem.h"
#include "vm/tlb.h"

namespace smtos {

// --- common/stats.h ---

template <typename Ar>
void
Sampler::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.io(count_);
    ar.io(sum_);
    ar.io(min_);
    ar.io(max_);
}
SMTOS_SNAP_INSTANTIATE(Sampler);

template <typename Ar>
void
Histogram::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(lo_);
    ar.expect(hi_);
    ar.expect(counts_.size());
    ar.pod(counts_);
    ar.io(total_);
    ar.io(weightedSum_);
}
SMTOS_SNAP_INSTANTIATE(Histogram);

template <typename Ar>
void
CounterMap::snap(Ar &ar)
{
    ar.expect(snapVersion);
    // std::map: sorted already.
    std::vector<std::pair<std::string, std::uint64_t>> rows(
        counts_.begin(), counts_.end());
    ar.seq(rows, [&ar](auto &r) {
        ar.io(r.first);
        ar.io(r.second);
    });
    if constexpr (Ar::loading)
        counts_ = {rows.begin(), rows.end()};
}
SMTOS_SNAP_INSTANTIATE(CounterMap);

// --- mem/missclass.h ---

template <typename Ar>
void
MissClassifier::snap(Ar &ar)
{
    ar.expect(snapVersion);
    // Sorted by block address, so equal state gives equal bytes. Each
    // address is held once, so sorting the records by it orders them
    // completely.
    std::vector<std::pair<Addr, Evictor>> rows;
    if constexpr (Ar::loading) {
        evictors_.clear();
    } else {
        rows.reserve(evictors_.size());
        evictors_.forEach([&rows](Addr k, const Evictor &e) {
            rows.emplace_back(k, e);
        });
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }
    std::uint64_t n = rows.size();
    ar.io(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr k = 0;
        Evictor e{};
        if constexpr (!Ar::loading) {
            k = rows[i].first;
            e = rows[i].second;
        }
        ar.io(k);
        ar.io(e.thread);
        ar.io(e.kernel);
        ar.io(e.byInvalidation);
        if constexpr (Ar::loading)
            evictors_.upsert(k) = e;
    }
}
SMTOS_SNAP_INSTANTIATE(MissClassifier);

// --- mem/cache.h ---

/**
 * A valid-way bitmap (way i is bit i % 64 of word i / 64), then the records
 * of the valid ways in index order. An invalid way's fields never reach
 * the simulation (a hit tests valid first, the victim is the first
 * invalid way whatever it holds, a fill overwrites every field), so it
 * is not written and restores as Line{}.
 */
template <typename Ar>
void
Cache::snap(Ar &ar)
{
    ar.expect(snapVersion);
    const std::size_t ways = lines_.size();
    std::vector<std::uint64_t> valid((ways + 63) / 64);
    if constexpr (!Ar::loading)
        for (std::size_t i = 0; i < ways; ++i)
            valid[i / 64] |= std::uint64_t{lines_[i].valid} << (i % 64);
    ar.expect(valid.size());
    ar.pod(valid);
    if constexpr (Ar::loading) {
        if (ways % 64 != 0)
            smtos_assert(valid.back() >> (ways % 64) == 0);
        std::fill(lines_.begin(), lines_.end(), Line{});
    }
    for (std::size_t w = 0; w < valid.size(); ++w) {
        for (std::uint64_t bits = valid[w]; bits != 0; bits &= bits - 1) {
            Line &l = lines_[w * 64 + std::countr_zero(bits)];
            if constexpr (Ar::loading)
                l.valid = true;
            ar.io(l.dirty);
            ar.io(l.blockAddr);
            ar.io(l.lruStamp);
            ar.io(l.fillerThread);
            ar.io(l.fillerKernel);
            ar.io(l.touchedMask);
        }
    }
    ar.io(tick_);
    classifier_.snap(ar);
    ar.pod(stats_);
}
SMTOS_SNAP_INSTANTIATE(Cache);

// --- mem/mshr.h ---

template <typename Ar>
void
MshrFile::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(entries_.size());
    for (Entry &e : entries_) {
        ar.io(e.valid);
        ar.io(e.blockAddr);
        ar.io(e.readyAt);
    }
    ar.io(fills_);
    ar.io(merges_);
    ar.io(fullStalls_);
    ar.io(occupancyIntegral_);
}
SMTOS_SNAP_INSTANTIATE(MshrFile);

// --- mem/storebuffer.h ---

template <typename Ar>
void
StoreBuffer::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(drains_.size());
    ar.pod(drains_);
    ar.expect(valid_.size());
    for (std::size_t i = 0; i < valid_.size(); ++i) {
        bool v = valid_[i]; // std::vector<bool>: no addressable bytes
        ar.io(v);
        if constexpr (Ar::loading)
            valid_[i] = v;
    }
    ar.io(stores_);
    ar.io(fullStalls_);
}
SMTOS_SNAP_INSTANTIATE(StoreBuffer);

// --- mem/bus.h ---

template <typename Ar>
void
Bus::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.io(nextFree_);
    ar.io(transactions_);
    ar.io(queueingDelay_);
}
SMTOS_SNAP_INSTANTIATE(Bus);

// --- mem/dram.h ---

template <typename Ar>
void
Dram::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.io(accesses_);
}
SMTOS_SNAP_INSTANTIATE(Dram);

// --- mem/memctrl.h ---

template <typename Ar>
void
MemCtrl::snap(Ar &ar)
{
    // The flat blob always comes first; the banked blob is appended
    // only when the banked model is live.
    flat_.snap(ar);
    if (!params_.banked)
        return;
    ar.expect(snapVersion);
    ar.expect(banks_.size());
    ar.pod(banks_);
    ar.expect(rankWin_.size());
    ar.pod(rankWin_);
    ar.expect(channels_.size());
    for (Channel &c : channels_) {
        ar.vec(c.busy);
        ar.vec(c.inflight);
    }
    snapCounters(ar, stats_);
}
SMTOS_SNAP_INSTANTIATE(MemCtrl);

// --- mem/hierarchy.h ---

template <typename Ar>
void
Uncore::snap(Ar &ar)
{
    ar.expect(snapVersion);
    l2_.snap(ar);
    l2Mshr_.snap(ar);
    l1l2Bus_.snap(ar);
    memBus_.snap(ar);
    memctrl_.snap(ar);
    ar.io(l2missIntegral_);
    hub_.snap(ar);
}
SMTOS_SNAP_INSTANTIATE(Uncore);

template <typename Ar>
void
Hierarchy::snap(Ar &ar)
{
    ar.expect(snapVersion);
    l1i_.snap(ar);
    l1d_.snap(ar);
    l1Mshr_.snap(ar);
    storeBuffer_.snap(ar);
    ar.io(imissIntegral_);
    ar.io(dmissIntegral_);
}
SMTOS_SNAP_INSTANTIATE(Hierarchy);

// --- vm/physmem.h ---

template <typename Ar>
void
PhysMem::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(totalFrames_);
    ar.expect(firstAlloc_);
    ar.io(bump_);
    ar.vec(freeList_);
    ar.io(allocated_);
}
SMTOS_SNAP_INSTANTIATE(PhysMem);

// --- vm/addrspace.h ---

template <typename Ar>
void
AddrSpace::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.io(asn_);
    ar.map(pages_);
    ar.map(ptPages_);
    if constexpr (Ar::loading) {
        // The host translation caches were warmed against the
        // pre-restore maps; restart them cold (they are validated, so
        // cold vs. warm is bit-identical for simulation results).
        for (auto &w : pageCache_)
            w.vpn = invalidVpn;
        for (auto &w : ptCache_)
            w.vpn = invalidVpn;
    }
}
SMTOS_SNAP_INSTANTIATE(AddrSpace);

// --- vm/tlb.h ---

template <typename Ar>
void
Tlb::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(entries_.size());
    for (Entry &e : entries_) {
        ar.io(e.valid);
        ar.io(e.global);
        ar.io(e.asn);
        ar.io(e.vpn);
        ar.io(e.frame);
        ar.io(e.filler);
        ar.io(e.fillerKernel);
        ar.io(e.touchedMask);
    }
    ar.io(replacePtr_);
    classifier_.snap(ar);
    ar.pod(stats_);
    if constexpr (Ar::loading) {
        rebuildTags();
        // Lookup hints are validated accelerators; restart them cold.
        std::fill(hint_.begin(), hint_.end(), 0u);
    }
}
SMTOS_SNAP_INSTANTIATE(Tlb);

// --- bp/mcfarling.h ---

template <typename Ar>
void
McFarling::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(localHist_.size());
    ar.pod(localHist_);
    ar.expect(localPred_.size());
    ar.pod(localPred_);
    ar.expect(global_.size());
    ar.pod(global_);
    ar.expect(chooser_.size());
    ar.pod(chooser_);
    ar.io(ghr_);
    ar.io(localPicks_);
    ar.io(globalPicks_);
}
SMTOS_SNAP_INSTANTIATE(McFarling);

// --- bp/btb.h ---

template <typename Ar>
void
Btb::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(entries_.size());
    for (Entry &e : entries_) {
        ar.io(e.valid);
        ar.io(e.pc);
        ar.io(e.target);
        ar.io(e.lruStamp);
    }
    ar.io(tick_);
    classifier_.snap(ar);
    ar.pod(stats_);
    ar.io(wrongTarget_);
}
SMTOS_SNAP_INSTANTIATE(Btb);

// --- bp/ras.h ---

template <typename Ar>
void
Ras::snap(Ar &ar)
{
    ar.expect(snapVersion);
    ar.expect(stack_.size());
    ar.pod(stack_);
    ar.io(sp_);
}
SMTOS_SNAP_INSTANTIATE(Ras);

// --- net/network.h ---

template <typename Ar>
void
Network::snap(Ar &ar)
{
    ar.expect(snapVersion);
    const auto packet = [&ar](Packet &p) { p.snap(ar); };
    ar.seq(toServer_, packet);
    ar.seq(toClient_, packet);
    ar.seq(delayed_, [&ar](Delayed &d) {
        ar.io(d.at);
        ar.io(d.toServer);
        d.pkt.snap(ar);
    });
    ar.io(now_);
    ar.io(reqPackets_);
    ar.io(respPackets_);
    ar.io(reqBytes_);
    ar.io(respBytes_);
}
SMTOS_SNAP_INSTANTIATE(Network);

// --- net/clients.h ---

template <typename Ar>
void
ClientPopulation::snap(Ar &ar)
{
    ar.expect(snapVersion);
    rng_.snap(ar);
    ar.expect(clients_.size());
    for (Client &c : clients_) {
        ar.io(c.state);
        ar.io(c.nextRequestAt);
        ar.io(c.respRemaining);
        c.lastRequest.snap(ar);
        ar.io(c.issuedAt);
        ar.io(c.timeoutAt);
        ar.io(c.retries);
        ar.io(c.reqSeq);
        ar.io(c.slow);
        ar.io(c.drainDoneAt);
    }
    ar.io(recovery_);
    ar.io(requestsIssued_);
    ar.io(responses_);
    ar.io(retransmits_);
    ar.io(aborts_);
    ar.io(retried_);
    latency_.snap(ar);
    retriedLatency_.snap(ar);

    // Open-loop generator.
    ar.io(arrivalInit_);
    ar.io(nextArrivalAt_);
    ar.io(rampStartAt_);
    ar.io(nextPort_);
    arrivalRng_.snap(ar);
    ar.io(arrivals_);
    ar.io(arrivalOverflows_);
    ar.io(slowCompletions_);
}
SMTOS_SNAP_INSTANTIATE(ClientPopulation);

// --- fault/fault.h ---

template <typename Ar>
void
FaultPlan::snap(Ar &ar)
{
    ar.expect(snapVersion);
    rngLink_.snap(ar);
    rngMce_.snap(ar);
    ar.io(nextMceAt_);
    ar.seq(log_, [&ar](FaultEvent &e) {
        ar.io(e.cycle);
        ar.io(e.kind);
        ar.io(e.a);
        ar.io(e.b);
    });
    ar.io(logOverflow_);
    ar.pod(c_);
}
SMTOS_SNAP_INSTANTIATE(FaultPlan);

} // namespace smtos
