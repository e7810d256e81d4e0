/**
 * @file
 * Network stack model: NIC interrupt generation, the driver receive
 * path, netisr delivery into sockets, and transmit.
 */

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "kernel/kernel.h"
#include "obs/probes.h"

namespace smtos {

namespace {

// Accounted-mode mbuf pool split (see DESIGN.md §14). RX units back
// received requests whose lifetime is unbounded (they live until the
// owning connection closes), so they are bitmap-accounted and their
// exhaustion backpressures the NIC. TX buffers are written and sent
// within one writev/NetSend pair and never read back, so a bump
// cursor whose wrap is counted (but harmless by construction) keeps
// the transmit path allocation-failure-free.
constexpr Addr mbufUnit = 2048;
constexpr Addr mbufRxUnits = 96;
constexpr Addr mbufTxBase = mbufRxUnits * mbufUnit;
constexpr Addr mbufTxBytes = mbufPoolBytes - mbufTxBase;

} // namespace

Addr
Kernel::allocMbuf(std::uint32_t bytes)
{
    // Legacy bump-and-wrap allocator: wrapping silently recycles
    // buffers that may still back in-flight packets. Kept verbatim as
    // the default because its addresses are part of the bit-identity
    // contract; admit.mbufAccounting replaces it with the accounted
    // split pool above.
    const Addr need =
        (static_cast<Addr>(bytes) + 2047ull) & ~2047ull; // 2KB mbufs
    if (mbufCursor_ + need > mbufPoolBytes)
        mbufCursor_ = 0;
    const Addr a = mbufPoolBase + mbufCursor_;
    mbufCursor_ += need;
    return a;
}

Addr
Kernel::allocRxMbuf(std::uint32_t bytes)
{
    Addr need = (static_cast<Addr>(bytes) + mbufUnit - 1) / mbufUnit;
    if (need == 0)
        need = 1;
    // First-fit contiguous scan; 96 bits, so brute force is fine.
    for (Addr u = 0; u + need <= mbufRxUnits; ++u) {
        Addr run = 0;
        while (run < need &&
               !(mbufRxMap_[(u + run) >> 6] &
                 (1ull << ((u + run) & 63))))
            ++run;
        if (run < need) {
            u += run; // next iteration starts past the used unit
            continue;
        }
        for (Addr k = 0; k < need; ++k)
            mbufRxMap_[(u + k) >> 6] |= 1ull << ((u + k) & 63);
        return mbufPoolBase + u * mbufUnit;
    }
    return 0; // exhausted: caller backpressures the NIC ring
}

void
Kernel::freeRxMbuf(Addr mbuf, std::uint32_t bytes)
{
    // Addresses outside the RX region (TX buffers, or legacy bump
    // addresses carried across a mid-flight accounting switch) are
    // not tracked; clearing an already-clear bit is harmless.
    if (mbuf < mbufPoolBase || mbuf >= mbufPoolBase + mbufTxBase)
        return;
    const Addr u0 = (mbuf - mbufPoolBase) / mbufUnit;
    Addr units = (static_cast<Addr>(bytes) + mbufUnit - 1) / mbufUnit;
    if (units == 0)
        units = 1;
    for (Addr k = 0; k < units && u0 + k < mbufRxUnits; ++k)
        mbufRxMap_[(u0 + k) >> 6] &= ~(1ull << ((u0 + k) & 63));
}

Addr
Kernel::allocTxMbuf(std::uint32_t bytes)
{
    const Addr need =
        (static_cast<Addr>(bytes) + mbufUnit - 1) & ~(mbufUnit - 1);
    if (mbufTxCursor_ + need > mbufTxBytes) {
        mbufTxCursor_ = 0;
        ++overload_.mbufTxWraps;
    }
    const Addr a = mbufPoolBase + mbufTxBase + mbufTxCursor_;
    mbufTxCursor_ += need;
    return a;
}

void
Kernel::rebuildRxMap()
{
    // Reconstruct the RX unit map from everything still referencing an
    // RX buffer: in-use connections (buffer lives until close) and
    // packets parked in the protocol queue. Equals the incremental
    // alloc/free bookkeeping in steady state, and makes switching
    // accounting on over a restored or mid-flight kernel safe.
    mbufRxMap_ = {};
    auto mark = [this](Addr mbuf, std::uint32_t bytes) {
        if (mbuf < mbufPoolBase || mbuf >= mbufPoolBase + mbufTxBase)
            return;
        const Addr u0 = (mbuf - mbufPoolBase) / mbufUnit;
        Addr units =
            (static_cast<Addr>(bytes) + mbufUnit - 1) / mbufUnit;
        if (units == 0)
            units = 1;
        for (Addr k = 0; k < units && u0 + k < mbufRxUnits; ++k)
            mbufRxMap_[(u0 + k) >> 6] |= 1ull << ((u0 + k) & 63);
    };
    for (const Connection &cn : conns_)
        if (cn.inUse)
            mark(cn.mbuf, cn.reqBytes);
    for (int core = 0; core < numCores(); ++core)
        for (const Packet &pkt : protoQFor(core))
            mark(pkt.mbuf, pkt.bytes);
}

void
Kernel::shedStaleAccepts()
{
    // Oldest-first shedding: the accept queue is FIFO, so accept
    // stamps increase front to back and the scan stops at the first
    // still-fresh entry. Shedding a connection whose client has
    // already (or will imminently) retransmit or give up costs no
    // goodput — serving it would.
    const AdmitParams &ap = admit_->params();
    while (static_cast<int>(acceptQ_.size()) >= ap.queueCap &&
           !acceptQ_.empty()) {
        const int id = acceptQ_.front();
        Connection &cn = conns_[static_cast<size_t>(id)];
        if (cn.acceptedAt + ap.shedDeadline > nowCycle_)
            break;
        acceptQ_.pop_front();
        ++overload_.admitShed;
        if (probes_) {
            probes_->reqDrop("admit-shed", cn.client, cn.reqSeq,
                             nowCycle_);
            probes_->queueDepth(1, acceptQ_.size(), nowCycle_);
        }
        smtos_trace(TraceCat::Net,
                    "shed stale accept conn %d (client %d)", id,
                    cn.client);
        if (params_.admit.mbufAccounting)
            freeRxMbuf(cn.mbuf, cn.reqBytes);
        cn = Connection{};
    }
}

void
Kernel::nicTick(Cycle now)
{
    if (faults_)
        net_.advance(now); // release link-delayed packets first
    clients_->tick(now, net_);
    int moved = 0;
    while (net_.serverHasRx() && moved < 64) {
        nicRing_.push_back(net_.popServerRx());
        ++moved;
    }
    if (!nicRing_.empty()) {
        if (faults_ && faults_->drawNicDrop()) {
            // Suppressed NIC interrupt: the ring keeps its packets and
            // the next tick's (coalescing) interrupt recovers them.
            faults_->note(now, FaultKind::NicIntrDrop, nicRing_.size());
            smtos_trace(TraceCat::Fault,
                        "nic interrupt dropped; ring depth %zu",
                        nicRing_.size());
            return;
        }
        const CtxId target =
            static_cast<CtxId>(nextIntrCtx_ % totalContexts());
        nextIntrCtx_ = (nextIntrCtx_ + 1) % totalContexts();
        raiseOn(ctxAt(target), VecNic);
    }
}

void
Kernel::driverRx(Process &p)
{
    // Packets land on the protocol queue of the core that took the
    // NIC interrupt; that core's pinned netisr drains them.
    const int core =
        p.runningOn != invalidCtx ? coreOf(p.runningOn) : 0;
    std::deque<Packet> &pq = protoQFor(core);
    const std::uint32_t batch =
        static_cast<std::uint32_t>(nicRing_.size());
    p.ts.iprs.intrTrip = std::max<std::uint32_t>(1, batch);
    const bool acct = params_.admit.mbufAccounting;
    if (!nicRing_.empty())
        lockAcquire(mbufLock_, "mbuf", &p, mbufLockHold);
    while (!nicRing_.empty()) {
        Packet pkt = nicRing_.front();
        if (acct) {
            const Addr a = allocRxMbuf(pkt.bytes);
            if (a == 0) {
                // RX pool exhausted: leave the remaining packets in
                // the NIC ring — explicit backpressure instead of the
                // legacy silent recycle. The next NIC tick re-raises
                // the interrupt while the ring is non-empty, so the
                // held packets drain as connections close.
                ++overload_.mbufExhausted;
                if (probes_)
                    probes_->reqDrop("mbuf-backpressure", pkt.client,
                                     pkt.reqSeq, nowCycle_);
                smtos_trace(TraceCat::Net,
                            "mbuf RX pool exhausted; %zu packets held",
                            nicRing_.size());
                break;
            }
            pkt.mbuf = a;
        } else {
            pkt.mbuf = allocMbuf(pkt.bytes);
        }
        nicRing_.pop_front();
        if (probes_ && pkt.open)
            probes_->reqDriverRx(pkt.client, pkt.reqSeq, nowCycle_);
        pq.push_back(pkt);
    }
    wakeWaiters(WaitProtoQ);
}

void
Kernel::netisrDeliver(Process &p)
{
    ThreadIprs &iprs = p.ts.iprs;
    std::deque<Packet> &pq = protoQFor(p.homeCore);
    if (pq.empty()) {
        iprs.copyTrip = 1;
        return;
    }
    Packet pkt = pq.front();
    pq.pop_front();
    iprs.copySrc = pkt.mbuf;
    iprs.copyTrip = std::max<std::uint32_t>(1, pkt.bytes / 64);

    if (pkt.open) {
        // Connection setup mutates the shared conn table/accept queue.
        lockAcquire(connLock_, "conn", &p, connLockHold);
        // Listen-queue backpressure: past the configured backlog the
        // SYN is refused outright (the client's timeout retransmits).
        const int backlog =
            faults_ ? faults_->params().listenBacklog : 0;
        if (backlog > 0 &&
            acceptQ_.size() >= static_cast<size_t>(backlog)) {
            ++faultCounts_.backlogDrops;
            faults_->note(nowCycle_, FaultKind::BacklogDrop,
                          static_cast<std::uint64_t>(pkt.client));
            if (probes_)
                probes_->reqDrop("backlog-drop", pkt.client,
                                 pkt.reqSeq, nowCycle_);
            smtos_trace(TraceCat::Fault,
                        "listen backlog full; client %d refused",
                        pkt.client);
            if (params_.admit.mbufAccounting)
                freeRxMbuf(pkt.mbuf, pkt.bytes);
            return;
        }
        // Admission control: bound the accept queue before queueing
        // delay exceeds the client retry timeout and service turns
        // into waste (the client's timeout retransmits any refusal).
        if (admit_) {
            const AdmitParams &ap = admit_->params();
            const int depth = static_cast<int>(acceptQ_.size());
            if (ap.policy == AdmitPolicy::OldestFirst) {
                if (depth >= ap.queueCap)
                    shedStaleAccepts();
                if (static_cast<int>(acceptQ_.size()) >=
                    ap.queueCap) {
                    ++overload_.admitDropTail;
                    if (probes_)
                        probes_->reqDrop("admit-drop-tail",
                                         pkt.client, pkt.reqSeq,
                                         nowCycle_);
                    smtos_trace(TraceCat::Net,
                                "admission: queue full, client %d "
                                "refused", pkt.client);
                    if (params_.admit.mbufAccounting)
                        freeRxMbuf(pkt.mbuf, pkt.bytes);
                    return;
                }
            } else if (admit_->shouldDrop(depth)) {
                const bool tail = depth >= ap.queueCap;
                if (tail)
                    ++overload_.admitDropTail;
                else
                    ++overload_.admitRedDrops;
                if (probes_)
                    probes_->reqDrop(tail ? "admit-drop-tail"
                                          : "admit-red",
                                     pkt.client, pkt.reqSeq,
                                     nowCycle_);
                smtos_trace(TraceCat::Net,
                            "admission: %s, client %d refused",
                            tail ? "queue full" : "early drop",
                            pkt.client);
                if (params_.admit.mbufAccounting)
                    freeRxMbuf(pkt.mbuf, pkt.bytes);
                return;
            }
        }
        // New connection carrying the request.
        int id = -1;
        for (size_t i = 0; i < conns_.size(); ++i) {
            if (!conns_[i].inUse) {
                id = static_cast<int>(i);
                break;
            }
        }
        if (id < 0) {
            // Connection-table exhaustion is measurable backpressure,
            // not a mere log line: count the drop so overload shows up
            // in MetricsSnapshot / the JSON export.
            ++faultCounts_.synDrops;
            if (faults_)
                faults_->note(nowCycle_, FaultKind::SynDrop,
                              static_cast<std::uint64_t>(pkt.client));
            if (probes_)
                probes_->reqDrop("syn-drop", pkt.client, pkt.reqSeq,
                                 nowCycle_);
            smtos_trace(TraceCat::Fault,
                        "conn table full; SYN from client %d dropped",
                        pkt.client);
            if (params_.admit.mbufAccounting)
                freeRxMbuf(pkt.mbuf, pkt.bytes);
            return;
        }
        Connection &cn = conns_[static_cast<size_t>(id)];
        cn = Connection{};
        cn.inUse = true;
        cn.client = pkt.client;
        cn.fileId = pkt.fileId;
        cn.reqBytes = pkt.bytes;
        cn.recvAvail = pkt.bytes;
        cn.mbuf = pkt.mbuf;
        cn.reqSeq = pkt.reqSeq;
        cn.acceptedAt = nowCycle_;
        acceptQ_.push_back(id);
        if (probes_) {
            probes_->reqAccepted(pkt.client, pkt.reqSeq, nowCycle_);
            probes_->queueDepth(1, acceptQ_.size(), nowCycle_);
        }
        wakeWaiters(WaitAccept);
        wakeWaiters(WaitRecv);
    } else if (params_.admit.mbufAccounting) {
        // Non-open packets end their life here; release the unit.
        freeRxMbuf(pkt.mbuf, pkt.bytes);
    }
}

void
Kernel::netSend(Process &p)
{
    if (p.txPacket.bytes == 0)
        return;
    smtos_trace(TraceCat::Net, "pid%d tx %u bytes conn %d", p.pid,
                p.txPacket.bytes, p.txPacket.conn);
    if (probes_ && p.txPacket.fin)
        probes_->reqTxDone(p.txPacket.client, p.txPacket.reqSeq,
                           p.pid, nowCycle_);
    net_.serverSend(p.txPacket);
    p.txPacket = Packet{};
}

} // namespace smtos
