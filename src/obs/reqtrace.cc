#include "obs/reqtrace.h"

#include <ostream>

#include "common/logging.h"
#include "obs/timeline.h"
#include "snap/snapshot.h"

namespace smtos {

namespace {

/** Histogram geometry shared with ClientPopulation::latency_ so the
 *  per-stage and end-to-end quantiles are directly comparable. */
constexpr std::int64_t histLo = 0;
constexpr std::int64_t histHi = 4 * 1024 * 1024;
constexpr int histBuckets = 256;

constexpr int pidScheduler = 2; ///< timeline pid of the sched tracks
constexpr int pidSyscalls = 1;  ///< timeline pid of the syscall tracks
constexpr int pidRequests = 6;  ///< timeline pid of the request tracks

std::string
reqArgs(int client, std::uint32_t seq)
{
    return "{\"client\":" + std::to_string(client) +
           ",\"seq\":" + std::to_string(seq) + "}";
}

} // namespace

const char *
reqStageName(int stage)
{
    switch (stage) {
      case 0: return "nic_wait";
      case 1: return "netstack";
      case 2: return "accept_wait";
      case 3: return "sched_wait";
      case 4: return "service";
      case 5: return "transmit";
    }
    return "?";
}

bool
reqStageIsQueueing(int stage)
{
    return stage == 0 || stage == 2 || stage == 3;
}

RequestTracer::RequestTracer()
    : stage_{Histogram(histLo, histHi, histBuckets),
             Histogram(histLo, histHi, histBuckets),
             Histogram(histLo, histHi, histBuckets),
             Histogram(histLo, histHi, histBuckets),
             Histogram(histLo, histHi, histBuckets),
             Histogram(histLo, histHi, histBuckets)},
      e2e_(histLo, histHi, histBuckets)
{
}

const Histogram &
RequestTracer::stageHist(int stage) const
{
    smtos_assert(stage >= 0 && stage < numReqStages);
    return stage_[stage];
}

std::uint64_t
RequestTracer::key(int client, std::uint32_t seq)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                client))
            << 32) |
           seq;
}

RequestTracer::Inflight *
RequestTracer::advance(int client, std::uint32_t seq, ReqBoundary b,
                       Cycle now)
{
    auto it = live_.find(key(client, seq));
    if (it == live_.end())
        return nullptr;
    // Only the expected next boundary advances the span; anything
    // else (a duplicate delivery from a retransmit race, a repeated
    // dispatch after preemption) is ignored.
    if (it->second.next != static_cast<std::uint8_t>(b))
        return nullptr;
    it->second.t[it->second.next++] = now;
    return &it->second;
}

void
RequestTracer::issue(int client, std::uint32_t seq, Cycle now)
{
    Inflight &f = live_[key(client, seq)];
    f = Inflight{};
    f.t[0] = now;
    f.next = 1;
    ++stats_.tracked;
    if (timeline_) {
        timeline_->requestInstant("issue", client, now,
                                  reqArgs(client, seq));
        timeline_->requestFlow('s', key(client, seq), pidRequests,
                               client, now);
    }
}

void
RequestTracer::retransmit(int client, std::uint32_t seq, Cycle now)
{
    ++stats_.retransmitAnnotations;
    auto it = live_.find(key(client, seq));
    if (it != live_.end())
        it->second.retried = true;
    if (timeline_)
        timeline_->requestInstant("retransmit", client, now,
                                  reqArgs(client, seq));
}

void
RequestTracer::abortReq(int client, std::uint32_t seq, Cycle now)
{
    ++stats_.aborted;
    auto it = live_.find(key(client, seq));
    if (it != live_.end()) {
        Span s;
        s.client = client;
        s.seq = seq;
        for (int i = 0; i < numReqBoundaries; ++i)
            s.t[i] = it->second.t[i];
        s.retried = it->second.retried;
        emitSpanLine(s, /*aborted=*/true);
        live_.erase(it);
    }
    if (timeline_)
        timeline_->requestInstant("abort", client, now,
                                  reqArgs(client, seq));
}

void
RequestTracer::driverRx(int client, std::uint32_t seq, Cycle now)
{
    if (advance(client, seq, ReqBoundary::DriverRx, now) &&
        timeline_) {
        timeline_->requestInstant("driver-rx", client, now);
        timeline_->requestFlow('t', key(client, seq), pidRequests,
                               client, now);
    }
}

void
RequestTracer::accepted(int client, std::uint32_t seq, Cycle now)
{
    if (advance(client, seq, ReqBoundary::Accepted, now) && timeline_)
        timeline_->requestInstant("accepted", client, now);
}

void
RequestTracer::claimed(int client, std::uint32_t seq, int pid,
                       Cycle now)
{
    if (advance(client, seq, ReqBoundary::Claimed, now) && timeline_)
        timeline_->requestInstant("claimed", client, now,
                                  "{\"pid\":" + std::to_string(pid) +
                                      "}");
}

void
RequestTracer::dispatched(int client, std::uint32_t seq, int ctx,
                          int pid, Cycle now)
{
    (void)pid;
    if (advance(client, seq, ReqBoundary::Dispatched, now) &&
        timeline_) {
        // Step on the scheduler track so the arrow chain passes
        // through the span of the serving context.
        timeline_->requestFlow('t', key(client, seq), pidScheduler,
                               ctx, now);
        timeline_->requestInstant("dispatched", client, now);
    }
}

void
RequestTracer::txDone(int client, std::uint32_t seq, int pid,
                      Cycle now)
{
    if (advance(client, seq, ReqBoundary::TxDone, now) && timeline_) {
        // Step on the serving thread's syscall track.
        timeline_->requestFlow('t', key(client, seq), pidSyscalls,
                               pid, now);
        timeline_->requestInstant("tx-done", client, now);
    }
}

void
RequestTracer::complete(int client, std::uint32_t seq, bool retried,
                        Cycle now)
{
    auto it = live_.find(key(client, seq));
    if (it == live_.end()) {
        // Completion for a request issued before the tracer attached.
        ++stats_.completedIrregular;
        return;
    }
    Inflight &f = it->second;
    Span s;
    s.client = client;
    s.seq = seq;
    for (int i = 0; i < numReqBoundaries; ++i)
        s.t[i] = f.t[i];
    s.t[numReqBoundaries - 1] = now;
    s.retried = retried || f.retried;
    s.clean = !s.retried &&
              f.next == static_cast<std::uint8_t>(numReqBoundaries - 1);
    if (s.clean) {
        ++stats_.completedClean;
        for (int i = 0; i < numReqStages; ++i) {
            const std::uint64_t d = s.t[i + 1] - s.t[i];
            stage_[i].sample(static_cast<std::int64_t>(d));
            stats_.stageCycles[i] += d;
            if (reqStageIsQueueing(i))
                stats_.queueingCycles += d;
            else
                stats_.serviceCycles += d;
        }
        e2e_.sample(static_cast<std::int64_t>(s.t[numReqBoundaries - 1] -
                                              s.t[0]));
    } else if (s.retried) {
        ++stats_.completedRetried;
    } else {
        ++stats_.completedIrregular;
    }
    completed_.push_back(s);
    emitSpanLine(s, /*aborted=*/false);
    if (timeline_) {
        timeline_->requestFlow('f', key(client, seq), pidRequests,
                               client, now);
        timeline_->requestInstant("complete", client, now,
                                  reqArgs(client, seq));
    }
    live_.erase(it);
}

void
RequestTracer::drop(const char *kind, int client, std::uint32_t seq,
                    Cycle now)
{
    ++stats_.dropAnnotations;
    if (timeline_)
        timeline_->requestInstant(kind, client, now,
                                  reqArgs(client, seq));
}

void
RequestTracer::emitSpanLine(const Span &s, bool aborted)
{
    if (!spans_)
        return;
    std::ostream &os = *spans_;
    os << "{";
    if (aborted)
        os << "\"aborted\":true,";
    os << "\"clean\":" << (s.clean ? "true" : "false")
       << ",\"client\":" << s.client
       << ",\"retried\":" << (s.retried ? "true" : "false")
       << ",\"seq\":" << s.seq;
    if (s.clean) {
        os << ",\"e2e\":" << (s.t[numReqBoundaries - 1] - s.t[0])
           << ",\"stages\":{";
        for (int i = 0; i < numReqStages; ++i) {
            if (i > 0)
                os << ",";
            os << "\"" << reqStageName(i)
               << "\":" << (s.t[i + 1] - s.t[i]);
        }
        os << "}";
    }
    os << ",\"t\":[";
    for (int i = 0; i < numReqBoundaries; ++i) {
        if (i > 0)
            os << ",";
        os << s.t[i];
    }
    os << "]}\n";
}

template <typename Ar>
void
RequestTracer::snap(Ar &ar)
{
    ar.expect(snapVersion);
    snapCounters(ar, stats_);
    for (Histogram &h : stage_)
        h.snap(ar);
    e2e_.snap(ar);
    // std::map: ascending key order.
    std::vector<std::pair<std::uint64_t, Inflight>> rows(live_.begin(),
                                                         live_.end());
    ar.seq(rows, [&ar](auto &r) {
        ar.io(r.first);
        ar.pod(r.second.t);
        ar.io(r.second.next);
        ar.io(r.second.retried);
    });
    if constexpr (Ar::loading)
        live_ = {rows.begin(), rows.end()};
}
SMTOS_SNAP_INSTANTIATE(RequestTracer);

} // namespace smtos
