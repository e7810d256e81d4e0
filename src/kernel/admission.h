/**
 * @file
 * Accept-queue admission control and overload accounting.
 *
 * Under open-loop load the accept queue is the kernel's last line of
 * defense: once queueing delay exceeds the client retry timeout,
 * every queued request will be retransmitted and its eventual
 * response discarded as stale, so service capacity is burned on work
 * nobody consumes and goodput collapses. The admission policies here
 * bound that queue *before* service is wasted:
 *
 *  - DropTail: refuse new connections once the queue holds queueCap
 *    entries. Simple, but sheds the freshest requests — the ones most
 *    likely to still have a waiting client.
 *  - RandomEarlyDrop: above redMinDepth, drop an arriving connection
 *    with probability ramping linearly to redMaxProb at queueCap
 *    (then drop-tail). Draws from its own seeded RNG stream so the
 *    drop schedule is bit-reproducible and independent of workload
 *    randomness.
 *  - OldestFirst: when the queue is full, shed entries from the front
 *    whose time-in-queue exceeds shedDeadline — those are the
 *    requests whose clients have already (or will imminently) give
 *    up. Keeping the deadline below the client retry timeout is what
 *    makes goodput stay flat past the knee.
 *
 * AdmissionControl is a pure decision helper (no kernel state) so the
 * unit tests can verify closed-form drop counts; the kernel owns the
 * queue and the counters. With policy None and mbufAccounting off,
 * no RNG is drawn and no behavior changes: runs are bit-identical to
 * a build without the subsystem.
 */

#ifndef SMTOS_KERNEL_ADMISSION_H
#define SMTOS_KERNEL_ADMISSION_H

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace smtos {

enum class AdmitPolicy { None, DropTail, RandomEarlyDrop, OldestFirst };

/** SMTOS_ADMIT policy names, indexed by AdmitPolicy. */
constexpr std::array<const char *, 4>
enumNames(AdmitPolicy)
{
    return {"none", "droptail", "red", "oldest"};
}

/** Admission-control configuration (SystemConfig::admit). */
struct AdmitParams {
    AdmitPolicy policy = AdmitPolicy::None;
    /** Accept-queue bound; 0 with a non-None policy is rejected. */
    int queueCap = 0;
    /** RED: depth at which early drop starts (below: always admit). */
    int redMinDepth = 0;
    /** RED: drop probability as the depth reaches queueCap. */
    double redMaxProb = 1.0;
    /** OldestFirst: shed entries queued longer than this (cycles). */
    Cycle shedDeadline = 0;
    /** Seed for the RED drop stream (never the workload's RNG). */
    std::uint64_t seed = 0xad317b5eULL;
    /**
     * Replace the bump-and-wrap mbuf allocator with an accounted
     * split pool: bitmap-allocated RX units whose exhaustion
     * backpressures the NIC ring, and a separate TX bump region
     * (see DESIGN.md §14). Off by default — the legacy allocator's
     * bytes and behavior are part of the bit-identity contract.
     */
    bool mbufAccounting = false;

    bool enabled() const
    {
        return policy != AdmitPolicy::None || mbufAccounting;
    }

    /** The field list (common/params.h): SMTOS_ADMIT keys, CFG order. */
    template <typename P, typename F>
    static void fields(P &p, F &&f)
    {
        f("policy", p.policy);
        f("cap", p.queueCap);
        f("redmin", p.redMinDepth);
        f("redmaxp", p.redMaxProb);
        f("deadline", p.shedDeadline);
        f("seed", p.seed);
        f("mbufacct", p.mbufAccounting);
    }

    /** Range rules (common/params.h): empty when valid. */
    std::string check() const
    {
        if (policy != AdmitPolicy::None && queueCap <= 0)
            return "policy needs cap > 0";
        if (!(redMaxProb >= 0.0 && redMaxProb <= 1.0))
            return "redmaxp outside [0, 1]";
        if (policy == AdmitPolicy::RandomEarlyDrop &&
            redMinDepth >= queueCap)
            return "policy=red needs redmin < cap";
        if (policy == AdmitPolicy::OldestFirst && shedDeadline == 0)
            return "policy=oldest needs deadline > 0";
        return {};
    }
};

/**
 * Pure admission decision: given the instantaneous accept-queue depth,
 * should this arriving connection be admitted? Owns only the RED RNG
 * stream. OldestFirst shedding itself happens in the kernel (it
 * mutates the queue); this helper only answers "is the queue full"
 * for that policy.
 */
class AdmissionControl {
public:
    explicit AdmissionControl(const AdmitParams &p)
        : params_(p), rng_(p.seed)
    {
    }

    const AdmitParams &params() const { return params_; }

    /** True if an arrival at @p depth should be dropped. */
    bool shouldDrop(int depth)
    {
        const AdmitParams &p = params_;
        if (p.policy == AdmitPolicy::None || p.queueCap <= 0)
            return false;
        if (depth >= p.queueCap)
            return true;
        if (p.policy == AdmitPolicy::RandomEarlyDrop &&
            depth >= p.redMinDepth) {
            const double span =
                static_cast<double>(p.queueCap - p.redMinDepth);
            const double prob =
                span > 0.0 ? p.redMaxProb *
                                 static_cast<double>(depth - p.redMinDepth) /
                                 span
                           : p.redMaxProb;
            return rng_.uniform() < prob;
        }
        return false;
    }

    std::uint64_t rngRawState() const { return rng_.rawState(); }
    void setRngRawState(std::uint64_t s) { rng_.setRawState(s); }

private:
    AdmitParams params_;
    Rng rng_;
};

/**
 * Overload accounting, captured into MetricsSnapshot and exported as
 * the gated "overload" JSON object. Merges client-side open-loop
 * counters with kernel-side admission/mbuf counters so one object
 * tells the whole degradation story: offered vs delivered vs shed.
 */
struct OverloadStats {
    bool enabled = false;
    // Client side (open-loop generator).
    std::uint64_t offeredArrivals = 0;  ///< open-loop arrival events
    std::uint64_t arrivalOverflows = 0; ///< arrivals with no idle port
    std::uint64_t goodput = 0;          ///< completions, aborts excluded
    std::uint64_t clientAborts = 0;     ///< sequences given up on
    std::uint64_t slowCompletions = 0;  ///< slow-client drained responses
    // Kernel side (admission + mbuf accounting).
    std::uint64_t admitDropTail = 0;  ///< arrivals refused at queueCap
    std::uint64_t admitRedDrops = 0;  ///< RED early drops
    std::uint64_t admitShed = 0;      ///< oldest-first shed entries
    std::uint64_t mbufExhausted = 0;  ///< RX allocs backpressured to NIC
    std::uint64_t mbufTxWraps = 0;    ///< TX bump-region wraps (benign)

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("offered_arrivals", s.offeredArrivals...);
        f("arrival_overflows", s.arrivalOverflows...);
        f("goodput", s.goodput...);
        f("client_aborts", s.clientAborts...);
        f("slow_completions", s.slowCompletions...);
        f("admit_drop_tail", s.admitDropTail...);
        f("admit_red_drops", s.admitRedDrops...);
        f("admit_shed", s.admitShed...);
        f("mbuf_exhausted", s.mbufExhausted...);
        f("mbuf_tx_wraps", s.mbufTxWraps...);
    }
};

} // namespace smtos

#endif // SMTOS_KERNEL_ADMISSION_H
