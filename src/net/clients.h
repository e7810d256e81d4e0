/**
 * @file
 * SPECWeb96-like client population.
 *
 * 128 clients issue HTTP-like requests against a file set whose sizes
 * follow the SPECWeb96 class mix (35% under 1KB, 50% 1-10KB, 14%
 * 10-100KB, 1% 100KB-1MB). Clients run "outside" the simulated CPU,
 * exactly as the paper's separately simulated driver machines did:
 * their work costs no server cycles; they only produce and consume
 * packets at NIC-interrupt granularity.
 *
 * When a fault plan perturbs the link, the population runs a recovery
 * layer: each outstanding request carries a timeout; on expiry the
 * request is retransmitted with capped exponential backoff, and after
 * maxRetries the client gives up and returns to thinking. Responses
 * are matched against the client's current request sequence number so
 * a stale (delayed or duplicated) response cannot be credited to a
 * later request. The layer is off by default and enabled explicitly
 * via setRecovery(), so fault-free runs draw no extra RNG and remain
 * bit-identical to builds without it.
 *
 * Open-loop mode (setOpenLoop) replaces the closed-loop think-time
 * issue model with an arrival *process* decoupled from response
 * completion — the production-serving shape where offered load does
 * not politely wait for the server. Arrivals follow a Poisson,
 * bursty (on/off duty cycle), or ramp schedule at a configured rate;
 * each arrival claims an idle client port (arrivals finding none are
 * counted as overflows — the offered load exceeded even the port
 * capacity), may be a slow client that drains its response at a
 * bounded rate after the server finishes sending, and may be a
 * keep-alive (minimal request bytes). The arrival process draws from
 * its own seeded RNG stream, never the closed-loop RNG, and the
 * recovery timeout layer is armed automatically (with optionally
 * overridden timeout/retry knobs) because an open-loop world without
 * give-ups would deadlock every port at saturation. Off by default;
 * disabled runs draw no arrival RNG and stay bit-identical.
 */

#ifndef SMTOS_NET_CLIENTS_H
#define SMTOS_NET_CLIENTS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/network.h"

namespace smtos {

class Probes;

/** Client population configuration. */
struct SpecWebParams
{
    int numClients = 128;
    int numFiles = 120;          ///< distinct files in the file set
    Cycle thinkMean = 30000;     ///< mean think time between requests
    std::uint32_t requestBytesMin = 192;
    std::uint32_t requestBytesMax = 512;

    // --- recovery layer (active only when setRecovery(true)) ---
    Cycle retryTimeout = 400000; ///< base response timeout
    int maxRetries = 6;          ///< retransmits before giving up
};

/** Open-loop arrival schedules. */
enum class ArrivalKind { Poisson, Bursty, Ramp };

/** SMTOS_OPENLOOP kind names, indexed by ArrivalKind. */
constexpr std::array<const char *, 3>
enumNames(ArrivalKind)
{
    return {"poisson", "bursty", "ramp"};
}

/** Open-loop load-generation configuration (WorkloadConfig::openLoop). */
struct OpenLoopParams
{
    bool enabled = false;
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Offered load: mean arrivals per million cycles. */
    double ratePerMcycle = 0.0;
    // Bursty: rate multiplier during the on-phase of each period.
    double burstFactor = 4.0;
    double burstDuty = 0.25;       ///< fraction of the period bursting
    Cycle burstPeriod = 200000;
    // Ramp: rate scales from rampStartFactor to 1 over rampCycles.
    double rampStartFactor = 0.25;
    Cycle rampCycles = 1'000'000;
    /** Fraction of requests from slow clients that drain the response
     *  at slowDrainPerKb cycles per KB after the server sends it. */
    double slowPct = 0.0;
    Cycle slowDrainPerKb = 4000;
    /** Fraction of keep-alive requests (minimal request bytes). */
    double keepAlivePct = 0.0;
    /** Override SpecWebParams timeout/retry for overload dynamics;
     *  0 keeps the closed-loop defaults. */
    Cycle retryTimeout = 0;
    int maxRetries = 0;
    /** Seed for the arrival RNG stream (never the closed-loop RNG). */
    std::uint64_t seed = 0x09e41ULL;

    /** The field list (common/params.h): SMTOS_OPENLOOP keys, CFG order. */
    template <typename P, typename F>
    static void
    fields(P &p, F &&f)
    {
        f("", p.enabled);
        f("kind", p.kind);
        f("rate", p.ratePerMcycle);
        f("burstfactor", p.burstFactor);
        f("burstduty", p.burstDuty);
        f("burstperiod", p.burstPeriod);
        f("rampstart", p.rampStartFactor);
        f("rampcycles", p.rampCycles);
        f("slowpct", p.slowPct);
        f("slowdrain", p.slowDrainPerKb);
        f("keepalive", p.keepAlivePct);
        f("retry", p.retryTimeout);
        f("maxretries", p.maxRetries);
        f("seed", p.seed);
    }

    /** Range rules (common/params.h): empty when valid. */
    std::string
    check() const
    {
        return enabled && !(ratePerMcycle > 0.0) ? "rate must be > 0" : "";
    }
};

/** Deterministic size of a file (shared with the server's FS). */
std::uint32_t specWebFileBytes(int file_id);

/** Pick a file id with the SPECWeb96 class mix. */
int specWebPickFile(Rng &rng, int num_files);

/** The client population driving the Apache workload. */
class ClientPopulation
{
  public:
    ClientPopulation(const SpecWebParams &params, std::uint64_t seed);

    /**
     * Advance the population to @p now: emit due requests into the
     * network and consume any completed response bytes.
     */
    void tick(Cycle now, Network &net);

    /** Enable/disable the timeout-retransmit recovery layer. */
    void setRecovery(bool on) { recovery_ = on; }
    bool recoveryEnabled() const { return recovery_; }

    /**
     * Switch to (or reconfigure) open-loop arrival generation. Applies
     * the timeout/retry overrides, reseeds the arrival RNG, and starts
     * the arrival clock at the next tick — safe to call on a freshly
     * resumed population mid-flight.
     */
    void setOpenLoop(const OpenLoopParams &p);
    bool openLoopEnabled() const { return openLoop_.enabled; }
    const OpenLoopParams &openLoop() const { return openLoop_; }

    /** Observability hub (null in normal runs; never mutates us). */
    void setProbes(Probes *p) { probes_ = p; }

    std::uint64_t requestsIssued() const { return requestsIssued_; }
    std::uint64_t responsesCompleted() const { return responses_; }
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t retriedResponses() const { return retried_; }

    /**
     * Delivered work: completed responses, aborted sequences excluded.
     * Whenever aborts can happen (recovery or open-loop mode) the
     * stale-sequence filter is armed, so a response to an abandoned
     * sequence is never credited — responses_ is already goodput.
     * Overload curves must plot this, not the server's requestsServed,
     * which counts duplicate and abandoned service as delivered.
     */
    std::uint64_t goodput() const { return responses_; }

    // Open-loop accounting (all zero in closed-loop runs).
    std::uint64_t arrivals() const { return arrivals_; }
    std::uint64_t arrivalOverflows() const { return arrivalOverflows_; }
    std::uint64_t slowCompletions() const { return slowCompletions_; }

    /** First-try request completion latency (issue of the only
     *  transmission to final response byte), in cycles. */
    const Histogram &latency() const { return latency_; }

    /** Latency of requests that needed at least one retransmit —
     *  kept apart so backoff cycles don't pollute the tail. */
    const Histogram &retriedLatency() const { return retriedLatency_; }

    const SpecWebParams &params() const { return params_; }

    static constexpr std::uint32_t snapVersion = 3;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Client
    {
        // Draining: a slow client whose response the server finished
        // sending but which the client consumes at a bounded rate;
        // the request completes (and samples latency) at drainDoneAt.
        // Only reachable in open-loop mode.
        enum class State { Thinking, Waiting, Draining }
            state = State::Thinking;
        Cycle nextRequestAt = 0;
        std::uint64_t respRemaining = 0;
        // Recovery state.
        Packet lastRequest;
        Cycle issuedAt = 0;
        Cycle timeoutAt = 0;
        int retries = 0;
        std::uint32_t reqSeq = 0;
        // Open-loop state.
        bool slow = false;
        Cycle drainDoneAt = 0;
    };

    SpecWebParams params_;
    Rng rng_;
    std::vector<Client> clients_;
    bool recovery_ = false;
    Probes *probes_ = nullptr;
    std::uint64_t requestsIssued_ = 0;
    std::uint64_t responses_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t retried_ = 0;
    Histogram latency_;
    Histogram retriedLatency_;

    // Open-loop generator state (untouched in closed-loop runs).
    OpenLoopParams openLoop_;
    Rng arrivalRng_{0x09e41ULL};
    bool arrivalInit_ = false;
    Cycle nextArrivalAt_ = 0;
    Cycle rampStartAt_ = 0;
    int nextPort_ = 0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t arrivalOverflows_ = 0;
    std::uint64_t slowCompletions_ = 0;

    Cycle drawThink(Cycle now);
    Cycle drawArrivalGap(Cycle at);
    void dispatchArrival(Cycle now, Network &net);
    void completeRequest(Client &c, int clientId, Cycle now);
};

} // namespace smtos

#endif // SMTOS_NET_CLIENTS_H
