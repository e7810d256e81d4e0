/**
 * @file
 * save(Snapshotter&)/load(Restorer&) definitions for every small
 * stateful class. Each blob starts with the class's snapVersion tag;
 * containers with nondeterministic iteration order (unordered maps)
 * are serialized sorted by key so identical simulated state always
 * produces identical artifact bytes. Host-side accelerator caches
 * (AddrSpace translation cache, TLB lookup hints) are not serialized:
 * they are validated before use, so restoring them cold is
 * bit-identical to restoring them warm.
 */

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "bp/btb.h"
#include "bp/mcfarling.h"
#include "bp/ras.h"
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

namespace {

/** Write/read a trivially copyable vector as one byte run. */
template <typename T>
void
vecOut(Snapshotter &sp, const std::vector<T> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    sp.u64(v.size());
    if (!v.empty())
        sp.bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
void
vecIn(Restorer &rs, std::vector<T> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    v.resize(rs.u64());
    if (!v.empty())
        rs.bytes(v.data(), v.size() * sizeof(T));
}

/** unordered_map<u64-ish, u64-ish> serialized sorted by key. */
template <typename K, typename V>
void
mapOut(Snapshotter &sp, const std::unordered_map<K, V> &m)
{
    std::vector<K> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    sp.u64(keys.size());
    for (const K &k : keys) {
        sp.u64(static_cast<std::uint64_t>(k));
        sp.u64(static_cast<std::uint64_t>(m.at(k)));
    }
}

template <typename K, typename V>
void
mapIn(Restorer &rs, std::unordered_map<K, V> &m)
{
    m.clear();
    const std::uint64_t n = rs.u64();
    m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const K k = static_cast<K>(rs.u64());
        m.emplace(k, static_cast<V>(rs.u64()));
    }
}

void
statsOut(Snapshotter &sp, const InterferenceStats &s)
{
    // All-u64 aggregate: no padding, safe as one byte run.
    sp.bytes(&s, sizeof s);
}

void
statsIn(Restorer &rs, InterferenceStats &s)
{
    rs.bytes(&s, sizeof s);
}

void
packetOut(Snapshotter &sp, const Packet &p)
{
    sp.i32(p.client);
    sp.i32(p.conn);
    sp.u32(p.bytes);
    sp.b(p.open);
    sp.b(p.fin);
    sp.i32(p.fileId);
    sp.u64(p.mbuf);
    sp.u32(p.reqSeq);
}

Packet
packetIn(Restorer &rs)
{
    Packet p;
    p.client = rs.i32();
    p.conn = rs.i32();
    p.bytes = rs.u32();
    p.open = rs.b();
    p.fin = rs.b();
    p.fileId = rs.i32();
    p.mbuf = rs.u64();
    p.reqSeq = rs.u32();
    return p;
}

std::uint32_t
tag(Restorer &rs, std::uint32_t want)
{
    const std::uint32_t v = rs.u32();
    smtos_assert(v == want);
    return v;
}

} // namespace

// --- common/stats.h ---

void
Sampler::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(count_);
    sp.f64(sum_);
    sp.f64(min_);
    sp.f64(max_);
}

void
Sampler::load(Restorer &rs)
{
    tag(rs, snapVersion);
    count_ = rs.u64();
    sum_ = rs.f64();
    min_ = rs.f64();
    max_ = rs.f64();
}

void
Histogram::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.i64(lo_);
    sp.i64(hi_);
    vecOut(sp, counts_);
    sp.u64(total_);
    sp.f64(weightedSum_);
}

void
Histogram::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.i64() == lo_);
    smtos_assert(rs.i64() == hi_);
    const std::size_t buckets = counts_.size();
    vecIn(rs, counts_);
    smtos_assert(counts_.size() == buckets);
    total_ = rs.u64();
    weightedSum_ = rs.f64();
}

void
CounterMap::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(counts_.size());
    for (const auto &kv : counts_) { // std::map: sorted already
        sp.str(kv.first);
        sp.u64(kv.second);
    }
}

void
CounterMap::load(Restorer &rs)
{
    tag(rs, snapVersion);
    counts_.clear();
    const std::uint64_t n = rs.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string k = rs.str();
        counts_[std::move(k)] = rs.u64();
    }
}

// --- mem/missclass.h ---

void
MissClassifier::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    std::vector<Addr> keys;
    keys.reserve(evictors_.size());
    evictors_.forEach(
        [&](Addr k, const Evictor &) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    sp.u64(keys.size());
    for (Addr k : keys) {
        const Evictor &e = *evictors_.find(k);
        sp.u64(k);
        sp.i32(e.thread);
        sp.b(e.kernel);
        sp.b(e.byInvalidation);
    }
}

void
MissClassifier::load(Restorer &rs)
{
    tag(rs, snapVersion);
    evictors_.clear();
    const std::uint64_t n = rs.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr k = rs.u64();
        Evictor e;
        e.thread = rs.i32();
        e.kernel = rs.b();
        e.byInvalidation = rs.b();
        evictors_.upsert(k) = e;
    }
}

// --- mem/cache.h ---

void
Cache::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(lines_.size());
    for (const Line &l : lines_) {
        sp.b(l.valid);
        sp.b(l.dirty);
        sp.u64(l.blockAddr);
        sp.u64(l.lruStamp);
        sp.i32(l.fillerThread);
        sp.b(l.fillerKernel);
        sp.u64(l.touchedMask);
    }
    sp.u64(tick_);
    classifier_.save(sp);
    statsOut(sp, stats_);
}

void
Cache::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == lines_.size());
    for (Line &l : lines_) {
        l.valid = rs.b();
        l.dirty = rs.b();
        l.blockAddr = rs.u64();
        l.lruStamp = rs.u64();
        l.fillerThread = rs.i32();
        l.fillerKernel = rs.b();
        l.touchedMask = rs.u64();
    }
    rebuildTags();
    tick_ = rs.u64();
    classifier_.load(rs);
    statsIn(rs, stats_);
}

// --- mem/mshr.h ---

void
MshrFile::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(entries_.size());
    for (const Entry &e : entries_) {
        sp.b(e.valid);
        sp.u64(e.blockAddr);
        sp.u64(e.readyAt);
    }
    sp.u64(fills_);
    sp.u64(merges_);
    sp.u64(fullStalls_);
    sp.f64(occupancyIntegral_);
}

void
MshrFile::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == entries_.size());
    for (Entry &e : entries_) {
        e.valid = rs.b();
        e.blockAddr = rs.u64();
        e.readyAt = rs.u64();
    }
    fills_ = rs.u64();
    merges_ = rs.u64();
    fullStalls_ = rs.u64();
    occupancyIntegral_ = rs.f64();
}

// --- mem/storebuffer.h ---

void
StoreBuffer::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    vecOut(sp, drains_);
    sp.u64(valid_.size());
    for (std::size_t i = 0; i < valid_.size(); ++i)
        sp.b(valid_[i]);
    sp.u64(stores_);
    sp.u64(fullStalls_);
}

void
StoreBuffer::load(Restorer &rs)
{
    tag(rs, snapVersion);
    const std::size_t slots = drains_.size();
    vecIn(rs, drains_);
    smtos_assert(drains_.size() == slots);
    smtos_assert(rs.u64() == valid_.size());
    for (std::size_t i = 0; i < valid_.size(); ++i)
        valid_[i] = rs.b();
    stores_ = rs.u64();
    fullStalls_ = rs.u64();
}

// --- mem/bus.h ---

void
Bus::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(nextFree_);
    sp.u64(transactions_);
    sp.u64(queueingDelay_);
}

void
Bus::load(Restorer &rs)
{
    tag(rs, snapVersion);
    nextFree_ = rs.u64();
    transactions_ = rs.u64();
    queueingDelay_ = rs.u64();
}

// --- mem/dram.h ---

void
Dram::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(accesses_);
}

void
Dram::load(Restorer &rs)
{
    tag(rs, snapVersion);
    accesses_ = rs.u64();
}

// --- mem/memctrl.h ---

void
MemCtrl::save(Snapshotter &sp) const
{
    // The flat blob always comes first; the banked blob is appended
    // only when the banked model is live.
    flat_.save(sp);
    if (!params_.banked)
        return;
    sp.u32(snapVersion);
    sp.u64(banks_.size());
    for (const Bank &b : banks_) {
        sp.i64(b.openRow);
        sp.u64(b.readyAt);
        sp.u64(b.nextColAt);
    }
    sp.u64(rankWin_.size());
    for (const RankWindow &r : rankWin_) {
        for (Cycle a : r.act)
            sp.u64(a);
        sp.i32(r.pos);
        sp.i32(r.count);
    }
    sp.u64(channels_.size());
    for (const Channel &c : channels_) {
        sp.u64(c.busy.size());
        for (const Interval &iv : c.busy) {
            sp.u64(iv.start);
            sp.u64(iv.end);
        }
        vecOut(sp, c.inflight);
    }
    sp.u64(accesses_);
    sp.u64(rowHits_);
    sp.u64(rowEmpties_);
    sp.u64(rowConflicts_);
    sp.u64(latencyCycles_);
    sp.u64(queueStallCycles_);
    sp.u64(queueFullStalls_);
    sp.u64(queueOccupancy_);
    vecOut(sp, chAccesses_);
    vecOut(sp, chBusyCycles_);
    vecOut(sp, bankRowHits_);
    vecOut(sp, bankRowConflicts_);
}

void
MemCtrl::load(Restorer &rs)
{
    flat_.load(rs);
    if (!params_.banked)
        return;
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == banks_.size());
    for (Bank &b : banks_) {
        b.openRow = rs.i64();
        b.readyAt = rs.u64();
        b.nextColAt = rs.u64();
    }
    smtos_assert(rs.u64() == rankWin_.size());
    for (RankWindow &r : rankWin_) {
        for (Cycle &a : r.act)
            a = rs.u64();
        r.pos = rs.i32();
        r.count = rs.i32();
    }
    smtos_assert(rs.u64() == channels_.size());
    for (Channel &c : channels_) {
        c.busy.clear();
        const std::uint64_t n = rs.u64();
        c.busy.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            Interval iv;
            iv.start = rs.u64();
            iv.end = rs.u64();
            c.busy.push_back(iv);
        }
        vecIn(rs, c.inflight);
    }
    accesses_ = rs.u64();
    rowHits_ = rs.u64();
    rowEmpties_ = rs.u64();
    rowConflicts_ = rs.u64();
    latencyCycles_ = rs.u64();
    queueStallCycles_ = rs.u64();
    queueFullStalls_ = rs.u64();
    queueOccupancy_ = rs.u64();
    vecIn(rs, chAccesses_);
    vecIn(rs, chBusyCycles_);
    vecIn(rs, bankRowHits_);
    vecIn(rs, bankRowConflicts_);
    smtos_assert(chAccesses_.size() == channels_.size());
    smtos_assert(bankRowHits_.size() == banks_.size());
}

// --- mem/hierarchy.h ---

void
Uncore::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    l2_.save(sp);
    l2Mshr_.save(sp);
    l1l2Bus_.save(sp);
    memBus_.save(sp);
    memctrl_.save(sp);
    sp.f64(l2missIntegral_);
    hub_.save(sp);
}

void
Uncore::load(Restorer &rs)
{
    tag(rs, snapVersion);
    l2_.load(rs);
    l2Mshr_.load(rs);
    l1l2Bus_.load(rs);
    memBus_.load(rs);
    memctrl_.load(rs);
    l2missIntegral_ = rs.f64();
    hub_.load(rs);
}

void
Hierarchy::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    l1i_.save(sp);
    l1d_.save(sp);
    l1Mshr_.save(sp);
    storeBuffer_.save(sp);
    sp.f64(imissIntegral_);
    sp.f64(dmissIntegral_);
}

void
Hierarchy::load(Restorer &rs)
{
    tag(rs, snapVersion);
    l1i_.load(rs);
    l1d_.load(rs);
    l1Mshr_.load(rs);
    storeBuffer_.load(rs);
    imissIntegral_ = rs.f64();
    dmissIntegral_ = rs.f64();
}

// --- vm/physmem.h ---

void
PhysMem::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(totalFrames_);
    sp.u64(firstAlloc_);
    sp.u64(bump_);
    vecOut(sp, freeList_);
    sp.u64(allocated_);
}

void
PhysMem::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == totalFrames_);
    smtos_assert(rs.u64() == firstAlloc_);
    bump_ = rs.u64();
    vecIn(rs, freeList_);
    allocated_ = rs.u64();
}

// --- vm/addrspace.h ---

void
AddrSpace::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.i32(asn_);
    mapOut(sp, pages_);
    mapOut(sp, ptPages_);
}

void
AddrSpace::load(Restorer &rs)
{
    tag(rs, snapVersion);
    asn_ = rs.i32();
    mapIn(rs, pages_);
    mapIn(rs, ptPages_);
    // The host translation caches were warmed against the pre-restore
    // maps; restart them cold (they are validated, so cold vs. warm is
    // bit-identical for simulation results).
    for (auto &w : pageCache_)
        w.vpn = invalidVpn;
    for (auto &w : ptCache_)
        w.vpn = invalidVpn;
}

// --- vm/tlb.h ---

void
Tlb::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(entries_.size());
    for (const Entry &e : entries_) {
        sp.b(e.valid);
        sp.b(e.global);
        sp.i32(e.asn);
        sp.u64(e.vpn);
        sp.u64(e.frame);
        sp.i32(e.filler);
        sp.b(e.fillerKernel);
        sp.u64(e.touchedMask);
    }
    sp.i32(replacePtr_);
    classifier_.save(sp);
    statsOut(sp, stats_);
}

void
Tlb::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == entries_.size());
    for (Entry &e : entries_) {
        e.valid = rs.b();
        e.global = rs.b();
        e.asn = rs.i32();
        e.vpn = rs.u64();
        e.frame = rs.u64();
        e.filler = rs.i32();
        e.fillerKernel = rs.b();
        e.touchedMask = rs.u64();
    }
    replacePtr_ = rs.i32();
    classifier_.load(rs);
    statsIn(rs, stats_);
    rebuildTags();
    // Lookup hints are validated accelerators; restart them cold.
    std::fill(hint_.begin(), hint_.end(), 0u);
}

// --- bp/mcfarling.h ---

void
McFarling::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    vecOut(sp, localHist_);
    vecOut(sp, localPred_);
    vecOut(sp, global_);
    vecOut(sp, chooser_);
    sp.u64(ghr_);
    sp.u64(localPicks_);
    sp.u64(globalPicks_);
}

void
McFarling::load(Restorer &rs)
{
    tag(rs, snapVersion);
    const std::size_t lh = localHist_.size(), lp = localPred_.size();
    const std::size_t g = global_.size(), ch = chooser_.size();
    vecIn(rs, localHist_);
    vecIn(rs, localPred_);
    vecIn(rs, global_);
    vecIn(rs, chooser_);
    smtos_assert(localHist_.size() == lh && localPred_.size() == lp);
    smtos_assert(global_.size() == g && chooser_.size() == ch);
    ghr_ = rs.u64();
    localPicks_ = rs.u64();
    globalPicks_ = rs.u64();
}

// --- bp/btb.h ---

void
Btb::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(entries_.size());
    for (const Entry &e : entries_) {
        sp.b(e.valid);
        sp.u64(e.pc);
        sp.u64(e.target);
        sp.u64(e.lruStamp);
    }
    sp.u64(tick_);
    classifier_.save(sp);
    statsOut(sp, stats_);
    sp.u64(wrongTarget_);
}

void
Btb::load(Restorer &rs)
{
    tag(rs, snapVersion);
    smtos_assert(rs.u64() == entries_.size());
    for (Entry &e : entries_) {
        e.valid = rs.b();
        e.pc = rs.u64();
        e.target = rs.u64();
        e.lruStamp = rs.u64();
    }
    tick_ = rs.u64();
    classifier_.load(rs);
    statsIn(rs, stats_);
    wrongTarget_ = rs.u64();
}

// --- bp/ras.h ---

void
Ras::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    vecOut(sp, stack_);
    sp.i32(sp_);
}

void
Ras::load(Restorer &rs)
{
    tag(rs, snapVersion);
    const std::size_t depth = stack_.size();
    vecIn(rs, stack_);
    smtos_assert(stack_.size() == depth);
    sp_ = rs.i32();
}

// --- net/network.h ---

void
Network::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    auto dequeOut = [&sp](const std::deque<Packet> &q) {
        sp.u64(q.size());
        for (const Packet &p : q)
            packetOut(sp, p);
    };
    dequeOut(toServer_);
    dequeOut(toClient_);
    sp.u64(delayed_.size());
    for (const Delayed &d : delayed_) {
        sp.u64(d.at);
        sp.b(d.toServer);
        packetOut(sp, d.pkt);
    }
    sp.u64(now_);
    sp.u64(reqPackets_);
    sp.u64(respPackets_);
    sp.u64(reqBytes_);
    sp.u64(respBytes_);
}

void
Network::load(Restorer &rs)
{
    tag(rs, snapVersion);
    auto dequeIn = [&rs](std::deque<Packet> &q) {
        q.clear();
        const std::uint64_t n = rs.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            q.push_back(packetIn(rs));
    };
    dequeIn(toServer_);
    dequeIn(toClient_);
    delayed_.clear();
    const std::uint64_t n = rs.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Delayed d;
        d.at = rs.u64();
        d.toServer = rs.b();
        d.pkt = packetIn(rs);
        delayed_.push_back(d);
    }
    now_ = rs.u64();
    reqPackets_ = rs.u64();
    respPackets_ = rs.u64();
    reqBytes_ = rs.u64();
    respBytes_ = rs.u64();
}

// --- net/clients.h ---

void
ClientPopulation::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(rng_.rawState());
    sp.u64(clients_.size());
    for (const Client &c : clients_) {
        sp.u8(static_cast<std::uint8_t>(c.state));
        sp.u64(c.nextRequestAt);
        sp.u64(c.respRemaining);
        packetOut(sp, c.lastRequest);
        sp.u64(c.issuedAt);
        sp.u64(c.timeoutAt);
        sp.i32(c.retries);
        sp.u32(c.reqSeq);
        sp.b(c.slow);
        sp.u64(c.drainDoneAt);
    }
    sp.b(recovery_);
    sp.u64(requestsIssued_);
    sp.u64(responses_);
    sp.u64(retransmits_);
    sp.u64(aborts_);
    sp.u64(retried_);
    latency_.save(sp);
    retriedLatency_.save(sp);

    // Open-loop generator.
    sp.b(arrivalInit_);
    sp.u64(nextArrivalAt_);
    sp.u64(rampStartAt_);
    sp.i32(nextPort_);
    sp.u64(arrivalRng_.rawState());
    sp.u64(arrivals_);
    sp.u64(arrivalOverflows_);
    sp.u64(slowCompletions_);
}

void
ClientPopulation::load(Restorer &rs)
{
    tag(rs, snapVersion);
    rng_.setRawState(rs.u64());
    smtos_assert(rs.u64() == clients_.size());
    for (Client &c : clients_) {
        c.state = static_cast<Client::State>(rs.u8());
        c.nextRequestAt = rs.u64();
        c.respRemaining = rs.u64();
        c.lastRequest = packetIn(rs);
        c.issuedAt = rs.u64();
        c.timeoutAt = rs.u64();
        c.retries = rs.i32();
        c.reqSeq = rs.u32();
        c.slow = rs.b();
        c.drainDoneAt = rs.u64();
    }
    recovery_ = rs.b();
    requestsIssued_ = rs.u64();
    responses_ = rs.u64();
    retransmits_ = rs.u64();
    aborts_ = rs.u64();
    retried_ = rs.u64();
    latency_.load(rs);
    retriedLatency_.load(rs);

    arrivalInit_ = rs.b();
    nextArrivalAt_ = rs.u64();
    rampStartAt_ = rs.u64();
    nextPort_ = rs.i32();
    arrivalRng_.setRawState(rs.u64());
    arrivals_ = rs.u64();
    arrivalOverflows_ = rs.u64();
    slowCompletions_ = rs.u64();
}

// --- fault/fault.h ---

void
FaultPlan::save(Snapshotter &sp) const
{
    sp.u32(snapVersion);
    sp.u64(rngLink_.rawState());
    sp.u64(rngMce_.rawState());
    sp.u64(nextMceAt_);
    sp.u64(log_.size());
    for (const FaultEvent &e : log_) {
        sp.u64(e.cycle);
        sp.u8(static_cast<std::uint8_t>(e.kind));
        sp.u64(e.a);
        sp.u64(e.b);
    }
    sp.u64(logOverflow_);
    // FaultCounters: all-u64 aggregate, no padding.
    sp.bytes(&c_, sizeof c_);
}

void
FaultPlan::load(Restorer &rs)
{
    tag(rs, snapVersion);
    rngLink_.setRawState(rs.u64());
    rngMce_.setRawState(rs.u64());
    nextMceAt_ = rs.u64();
    log_.clear();
    const std::uint64_t n = rs.u64();
    log_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        FaultEvent e;
        e.cycle = rs.u64();
        e.kind = static_cast<FaultKind>(rs.u8());
        e.a = rs.u64();
        e.b = rs.u64();
        log_.push_back(e);
    }
    logOverflow_ = rs.u64();
    rs.bytes(&c_, sizeof c_);
}

} // namespace smtos
