/**
 * @file
 * End-to-end request tracing: per-request span pipeline with
 * queueing-vs-service latency attribution.
 *
 * Every client request already carries a stable identity — the
 * (client, reqSeq) pair threaded through Packet — from issue to the
 * final response byte. The tracer turns that identity into a span:
 * seven cycle-stamped boundaries delimiting six stages,
 *
 *   t0 Issue      client emits the request packet
 *   t1 DriverRx   driver pops the packet off the NIC ring
 *   t2 Accepted   netstack sets up the connection, accept queue push
 *   t3 Claimed    a server process claims the connection (accept)
 *   t4 Dispatched the claiming process is running on a context
 *   t5 TxDone     final (fin) response packet handed to the NIC
 *   t6 Complete   client consumes the last response byte
 *
 *   stage 0 nic_wait    t1-t0   queueing (NIC ring + interrupt wait)
 *   stage 1 netstack    t2-t1   service  (driver + protocol input)
 *   stage 2 accept_wait t3-t2   queueing (accept-queue backlog)
 *   stage 3 sched_wait  t4-t3   queueing (run-queue wait)
 *   stage 4 service     t5-t4   service  (server user/kernel work)
 *   stage 5 transmit    t6-t5   service  (response in flight)
 *
 * Boundaries telescope, so for every non-retransmitted request the
 * stage cycles sum EXACTLY to the client-observed end-to-end latency
 * (t6 - t0), the same value the client samples into its latency
 * histogram. Retransmitted requests revisit stages, so they are
 * counted and timed separately and excluded from the invariant.
 *
 * Producers reach the tracer only through the Probes hub: one
 * predictable branch per site when tracing is off, and the tracer
 * never mutates simulation state, so traced runs are bit-identical
 * to untraced ones. Tracer state round-trips through the snapshot
 * artifact (an optional trailing RQTR section) so resumed sweeps
 * trace cleanly across the snapshot boundary.
 */

#ifndef SMTOS_OBS_REQTRACE_H
#define SMTOS_OBS_REQTRACE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "common/counters.h"
#include "common/stats.h"
#include "common/types.h"

namespace smtos {

class TimelineExporter;

/** Span boundaries (see file comment). */
enum class ReqBoundary : std::uint8_t
{
    Issue = 0,
    DriverRx,
    Accepted,
    Claimed,
    Dispatched,
    TxDone,
    Complete,
};

constexpr int numReqBoundaries =
    static_cast<int>(ReqBoundary::Complete) + 1;
constexpr int numReqStages = numReqBoundaries - 1;

/** Human-readable stage name ("nic_wait", ..., "transmit"). */
const char *reqStageName(int stage);

/** True for the queueing stages (nic_wait, accept_wait, sched_wait). */
bool reqStageIsQueueing(int stage);

/**
 * Aggregate tracing counters. `enabled` marks whether a tracer was
 * attached when the snapshot was captured; it stays out of the field
 * list, so a delta keeps the later capture's.
 */
struct ReqTraceStats
{
    std::uint64_t enabled = 0;
    std::uint64_t tracked = 0;        ///< spans opened at Issue
    std::uint64_t completedClean = 0; ///< invariant-bearing completions
    std::uint64_t completedRetried = 0;
    std::uint64_t completedIrregular = 0; ///< missing boundaries
    std::uint64_t aborted = 0;            ///< client gave up
    std::uint64_t retransmitAnnotations = 0;
    std::uint64_t dropAnnotations = 0; ///< SYN/backlog/MCE annotations
    std::uint64_t stageCycles[numReqStages] = {};
    std::uint64_t queueingCycles = 0; ///< nic+accept+sched wait
    std::uint64_t serviceCycles = 0;  ///< netstack+service+transmit

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("tracked", s.tracked...);
        f("completed_clean", s.completedClean...);
        f("completed_retried", s.completedRetried...);
        f("completed_irregular", s.completedIrregular...);
        f("aborted", s.aborted...);
        f("retransmit_annotations", s.retransmitAnnotations...);
        f("drop_annotations", s.dropAnnotations...);
        f("stage_cycles", ByName{s.stageCycles, reqStageName}...);
        f("queueing_cycles", s.queueingCycles...);
        f("service_cycles", s.serviceCycles...);
    }
};

/**
 * The tracer. Owned by ObsSession, reached by producers through the
 * Probes hub. Spans advance through the boundaries strictly in order;
 * an event that is not the expected next boundary is ignored, which
 * makes duplicate deliveries from retransmit races and repeated
 * dispatches after preemption harmless.
 */
class RequestTracer
{
  public:
    RequestTracer();

    /** Perfetto sink for flow/instant/counter events (may be null). */
    void bindTimeline(TimelineExporter *timeline)
    {
        timeline_ = timeline;
    }

    /** JSONL sink; one line per finished span (may be null). Lines
     *  are written only when a span finishes, never for in-flight
     *  spans, so a straight run's file equals the concatenation of a
     *  snapshotted run's file and its resumption's file. */
    void setSpanSink(std::ostream *os) { spans_ = os; }

    // --- producer hooks (via Probes); @p now is the producer's own
    // --- cycle clock so stamps match the simulation bit-for-bit ---
    void issue(int client, std::uint32_t seq, Cycle now);
    void retransmit(int client, std::uint32_t seq, Cycle now);
    void abortReq(int client, std::uint32_t seq, Cycle now);
    void driverRx(int client, std::uint32_t seq, Cycle now);
    void accepted(int client, std::uint32_t seq, Cycle now);
    void claimed(int client, std::uint32_t seq, int pid, Cycle now);
    void dispatched(int client, std::uint32_t seq, int ctx, int pid,
                    Cycle now);
    void txDone(int client, std::uint32_t seq, int pid, Cycle now);
    void complete(int client, std::uint32_t seq, bool retried,
                  Cycle now);
    /** Fault annotation (@p kind: "syn-drop", "backlog-drop",
     *  "mce-kill"); the span keeps advancing if a retransmit lands. */
    void drop(const char *kind, int client, std::uint32_t seq,
              Cycle now);

    const ReqTraceStats &stats() const { return stats_; }
    const Histogram &stageHist(int stage) const;
    const Histogram &e2e() const { return e2e_; }
    std::size_t inflight() const { return live_.size(); }

    /** One finished span (in completion order). Kept in memory for
     *  tests and benches; not serialized — a resumed tracer reports
     *  only post-resume completions here (aggregates do round-trip). */
    struct Span
    {
        int client = 0;
        std::uint32_t seq = 0;
        Cycle t[numReqBoundaries] = {};
        bool retried = false;
        bool clean = false; ///< all boundaries stamped, not retried
    };
    const std::vector<Span> &completed() const { return completed_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Inflight
    {
        Cycle t[numReqBoundaries] = {};
        std::uint8_t next = 0; ///< index of the next expected boundary
        bool retried = false;
    };

    static std::uint64_t key(int client, std::uint32_t seq);
    /** Stamp @p b if it is the span's next boundary; else ignore. */
    Inflight *advance(int client, std::uint32_t seq, ReqBoundary b,
                      Cycle now);
    void emitSpanLine(const Span &s, bool aborted);

    TimelineExporter *timeline_ = nullptr;
    std::ostream *spans_ = nullptr;
    /** In-flight spans, keyed (client << 32 | seq); std::map so
     *  serialization order is deterministic. */
    std::map<std::uint64_t, Inflight> live_;
    std::vector<Span> completed_;
    ReqTraceStats stats_;
    Histogram stage_[numReqStages];
    Histogram e2e_;
};

} // namespace smtos

#endif // SMTOS_OBS_REQTRACE_H
