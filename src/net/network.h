/**
 * @file
 * The simulated LAN between the SPECWeb-like clients and the server.
 *
 * Mirrors the paper's setup: a direct connection that transmits
 * packets with no loss and no latency, with NIC interrupts delivered
 * to the CPU at a coarse, configurable interval (the paper's 10 ms
 * barrier, scaled to simulation length).
 *
 * A FaultPlan may be attached to perturb the link: per-packet loss,
 * extra latency (packets are staged until their release cycle), and
 * reordering. With no plan attached — or a plan with all link rates at
 * zero — the send path is byte-for-byte the original lossless
 * zero-latency behavior and draws no fault RNG.
 */

#ifndef SMTOS_NET_NETWORK_H
#define SMTOS_NET_NETWORK_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "fault/fault.h"

namespace smtos {

/** A network packet (request or response). */
struct Packet
{
    int client = -1;        ///< originating/destination client
    int conn = -1;          ///< server connection id (-1 until accepted)
    std::uint32_t bytes = 0;
    bool open = false;      ///< carries a new connection + request
    bool fin = false;       ///< closes the connection
    int fileId = -1;        ///< requested file (request packets)
    Addr mbuf = 0;          ///< physical address of the backing mbuf
    std::uint32_t reqSeq = 0;  ///< request sequence, echoed in responses

    /** Snapshot field list (the network, clients and kernel queues
     *  all carry packets). */
    template <typename Ar>
    void
    snap(Ar &ar)
    {
        ar.io(client);
        ar.io(conn);
        ar.io(bytes);
        ar.io(open);
        ar.io(fin);
        ar.io(fileId);
        ar.io(mbuf);
        ar.io(reqSeq);
    }
};

/** Lossless zero-latency link with per-direction queues. */
class Network
{
  public:
    /** Attach fault injection (nullptr detaches). */
    void attachFaults(FaultPlan *plan) { faults_ = plan; }

    /**
     * Advance link time: release delayed packets whose deliver cycle
     * has arrived. A no-op without delay faults.
     */
    void
    advance(Cycle now)
    {
        now_ = now;
        if (delayed_.empty())
            return;
        // Due packets release in staging order (deterministic; exact
        // deliverAt ordering is irrelevant at NIC-interval granularity).
        std::size_t i = 0;
        while (i < delayed_.size()) {
            if (delayed_[i].at <= now_) {
                Delayed d = delayed_[i];
                delayed_.erase(delayed_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                (d.toServer ? toServer_ : toClient_).push_back(d.pkt);
            } else {
                ++i;
            }
        }
    }

    void
    clientSend(const Packet &p)
    {
        ++reqPackets_;
        reqBytes_ += p.bytes;
        deliver(toServer_, p, true);
    }

    void
    serverSend(const Packet &p)
    {
        ++respPackets_;
        respBytes_ += p.bytes;
        deliver(toClient_, p, false);
    }

    bool serverHasRx() const { return !toServer_.empty(); }

    Packet
    popServerRx()
    {
        Packet p = toServer_.front();
        toServer_.pop_front();
        return p;
    }

    bool clientHasRx() const { return !toClient_.empty(); }

    Packet
    popClientRx()
    {
        Packet p = toClient_.front();
        toClient_.pop_front();
        return p;
    }

    std::uint64_t requestPackets() const { return reqPackets_; }
    std::uint64_t responsePackets() const { return respPackets_; }
    std::uint64_t requestBytes() const { return reqBytes_; }
    std::uint64_t responseBytes() const { return respBytes_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Delayed
    {
        Cycle at = 0;
        bool toServer = false;
        Packet pkt;
    };

    void
    deliver(std::deque<Packet> &q, const Packet &p, bool toServer)
    {
        // Traffic counters above track offered load; faults below are
        // accounted separately in the plan so a lossy run's drop rate
        // is directly measurable.
        if (faults_ && faults_->linkFaultsOn()) {
            const int dir = toServer ? 0 : 1;
            if (faults_->drawLoss()) {
                faults_->note(now_, FaultKind::PktLoss,
                              static_cast<std::uint64_t>(dir),
                              static_cast<std::uint64_t>(p.client));
                return;
            }
            // Reorder before delay: a configured delay window applies
            // to every surviving packet, so checking it first would
            // starve the explicit swap.
            if (q.size() >= 1 && faults_->drawReorder()) {
                faults_->note(now_, FaultKind::PktReorder,
                              static_cast<std::uint64_t>(dir),
                              static_cast<std::uint64_t>(p.client));
                q.insert(q.end() - 1, p);
                return;
            }
            if (const Cycle extra = faults_->drawDelay(); extra > 0) {
                faults_->note(now_, FaultKind::PktDelay,
                              static_cast<std::uint64_t>(dir), extra);
                delayed_.push_back(Delayed{now_ + extra, toServer, p});
                return;
            }
        }
        q.push_back(p);
    }

    std::deque<Packet> toServer_;
    std::deque<Packet> toClient_;
    std::vector<Delayed> delayed_;
    FaultPlan *faults_ = nullptr;
    Cycle now_ = 0;
    std::uint64_t reqPackets_ = 0;
    std::uint64_t respPackets_ = 0;
    std::uint64_t reqBytes_ = 0;
    std::uint64_t respBytes_ = 0;
};

} // namespace smtos

#endif // SMTOS_NET_NETWORK_H
