#include "mem/memctrl.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/probes.h"

namespace smtos {

MemCtrl::MemCtrl(const DramParams &params) : params_(params)
{
    if (!params_.banked)
        return;
    banks_.resize(static_cast<std::size_t>(params_.totalBanks()));
    rankWin_.resize(
        static_cast<std::size_t>(params_.channels * params_.ranks));
    channels_.resize(static_cast<std::size_t>(params_.channels));
    stats_.banked = true;
    stats_.chAccesses.assign(static_cast<std::size_t>(params_.channels),
                             0);
    stats_.chBusyCycles.assign(
        static_cast<std::size_t>(params_.channels), 0);
    stats_.bankRowHits.assign(
        static_cast<std::size_t>(params_.totalBanks()), 0);
    stats_.bankRowConflicts.assign(
        static_cast<std::size_t>(params_.totalBanks()), 0);
}

int
MemCtrl::channelOf(Addr paddr) const
{
    const Addr blk = paddr / static_cast<Addr>(params_.burstBytes);
    return static_cast<int>(blk %
                            static_cast<Addr>(params_.channels));
}

int
MemCtrl::bankOf(Addr paddr) const
{
    const Addr blk = paddr / static_cast<Addr>(params_.burstBytes);
    const int ch = static_cast<int>(
        blk % static_cast<Addr>(params_.channels));
    const Addr rest = blk / static_cast<Addr>(params_.channels);
    const int perCh = params_.ranks * params_.banksPerRank;
    const int inCh =
        static_cast<int>(rest % static_cast<Addr>(perCh));
    return ch * perCh + inCh;
}

std::int64_t
MemCtrl::rowOf(Addr paddr) const
{
    const Addr blk = paddr / static_cast<Addr>(params_.burstBytes);
    const Addr rest = blk / static_cast<Addr>(params_.channels);
    const Addr colBlk =
        rest / static_cast<Addr>(params_.ranks * params_.banksPerRank);
    const Addr blocksPerRow = static_cast<Addr>(
        params_.rowBytes / params_.burstBytes);
    return static_cast<std::int64_t>(colBlk / blocksPerRow);
}

int
MemCtrl::rankIdOf(Addr paddr) const
{
    const int bank = bankOf(paddr);
    const int perCh = params_.ranks * params_.banksPerRank;
    const int ch = bank / perCh;
    const int inCh = bank % perCh;
    return ch * params_.ranks + inCh / params_.banksPerRank;
}

void
MemCtrl::purge(Channel &c, Cycle now)
{
    c.inflight.erase(
        std::remove_if(c.inflight.begin(), c.inflight.end(),
                       [now](Cycle f) { return f <= now; }),
        c.inflight.end());
    // Bus reservations that ended at or before `now` can never
    // overlap a later placement (arrivals are monotone).
    c.busy.erase(std::remove_if(c.busy.begin(), c.busy.end(),
                                [now](const Interval &iv) {
                                    return iv.end <= now;
                                }),
                 c.busy.end());
}

Cycle
MemCtrl::claimBus(Channel &c, Cycle from)
{
    Cycle start = from;
    const Cycle len = params_.tBurst;
    std::size_t at = 0;
    for (std::size_t i = 0; i < c.busy.size(); ++i) {
        const Interval &iv = c.busy[i];
        if (iv.end <= start) {
            at = i + 1;
            continue;
        }
        if (iv.start >= start + len)
            break; // a gap before this reservation fits
        start = iv.end; // collide: slide past and keep looking
        at = i + 1;
    }
    c.busy.insert(c.busy.begin() + static_cast<std::ptrdiff_t>(at),
                  Interval{start, start + len});
    return start;
}

Cycle
MemCtrl::access(Addr paddr, const AccessInfo &who, Cycle now)
{
    if (!params_.banked)
        return flat_.access(now);

    const int ch = channelOf(paddr);
    Channel &c = channels_[static_cast<std::size_t>(ch)];

    // Bounded queue: a full channel backpressures the arrival until
    // the oldest in-flight request completes.
    Cycle arrival = now;
    purge(c, arrival);
    if (static_cast<int>(c.inflight.size()) >= params_.queueDepth) {
        ++stats_.queueFullStalls;
        while (static_cast<int>(c.inflight.size()) >=
               params_.queueDepth) {
            arrival = *std::min_element(c.inflight.begin(),
                                        c.inflight.end());
            purge(c, arrival);
        }
        stats_.queueStallCycles += arrival - now;
    }

    const int bank = bankOf(paddr);
    Bank &b = banks_[static_cast<std::size_t>(bank)];
    const std::int64_t row = rowOf(paddr);

    DramRowOutcome out;
    Cycle dataReady;
    if (b.openRow == row) {
        out = DramRowOutcome::Hit;
        dataReady = std::max(arrival, b.nextColAt) + params_.tCas;
    } else {
        Cycle act = std::max(arrival, b.readyAt);
        if (b.openRow < 0) {
            out = DramRowOutcome::Empty;
        } else {
            out = DramRowOutcome::Conflict;
            act += params_.tRp;
        }
        // tFAW: the fourth-last activate on this rank gates this one.
        RankWindow &r =
            rankWin_[static_cast<std::size_t>(rankIdOf(paddr))];
        if (r.count >= 4)
            act = std::max(act, r.act[r.pos] + params_.tFaw);
        else
            ++r.count;
        r.act[r.pos] = act;
        r.pos = (r.pos + 1) % 4;
        dataReady = act + params_.tRcd + params_.tCas;
    }

    // FR-FCFS: the burst takes the earliest bus gap its bank timing
    // allows, so early-ready row hits overtake queued conflicts.
    const Cycle start = claimBus(c, dataReady);
    const Cycle finish = start + params_.tBurst;

    if (params_.closedPage) {
        b.openRow = -1;
        b.nextColAt = finish;
        b.readyAt = finish + params_.tRp; // auto-precharge
    } else {
        b.openRow = row;
        b.nextColAt = start;
        b.readyAt = finish;
    }

    c.inflight.push_back(finish);

    ++stats_.accesses;
    ++stats_.chAccesses[static_cast<std::size_t>(ch)];
    stats_.chBusyCycles[static_cast<std::size_t>(ch)] += params_.tBurst;
    switch (out) {
      case DramRowOutcome::Hit:
        ++stats_.rowHits;
        ++stats_.bankRowHits[static_cast<std::size_t>(bank)];
        break;
      case DramRowOutcome::Empty:
        ++stats_.rowEmpties;
        break;
      case DramRowOutcome::Conflict:
        ++stats_.rowConflicts;
        ++stats_.bankRowConflicts[static_cast<std::size_t>(bank)];
        break;
    }
    stats_.latencyCycles += finish - now;
    stats_.queueOccupancy += c.inflight.size();

    if (probes_)
        probes_->dramAccess(who.thread, paddr, ch, bank,
                            static_cast<int>(out),
                            static_cast<int>(c.inflight.size()));
    return finish;
}

DramStats
MemCtrl::stats() const
{
    if (params_.banked)
        return stats_;
    DramStats s;
    s.accesses = flat_.accesses();
    return s;
}

} // namespace smtos
