/**
 * @file
 * SMARTS-style sampled simulation driver (DESIGN.md §15).
 *
 * Systematic interval sampling over the switchable-fidelity core:
 * fast-forward functionally (warming caches, TLBs and the branch
 * predictor), run a detailed warm-up whose metrics are discarded
 * (timing structures refill), then measure one detailed interval;
 * repeat until the instruction budget is spent. Per-metric confidence
 * intervals come from the variance across intervals, so every sampled
 * estimate carries its own error bound.
 */

#ifndef SMTOS_HARNESS_SAMPLE_H
#define SMTOS_HARNESS_SAMPLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace smtos {

class System;

/** Sampling-regime knobs (the SMTOS_SAMPLE grammar). */
struct SampleParams
{
    bool enabled = false;
    /** Instructions per sampling period: functional fast-forward +
     *  detailed warm-up + detailed measured interval. */
    std::uint64_t periodInstrs = 50'000;
    /** Detailed warm-up instructions discarded before each interval
     *  (refills pipeline/MSHR/store-buffer timing state). */
    std::uint64_t warmInstrs = 3'000;
    /** Measured detailed instructions per interval. */
    std::uint64_t intervalInstrs = 2'000;
    /** Two-sided confidence level of the reported half-widths;
     *  quantized to the 0.90 / 0.95 / 0.99 z ladder. */
    double confidence = 0.95;

    /** The field list (common/params.h): SMTOS_SAMPLE keys, CFG order. */
    template <typename P, typename F>
    static void
    fields(P &p, F &&f)
    {
        f("", p.enabled);
        f("period", p.periodInstrs);
        f("warm", p.warmInstrs);
        f("interval", p.intervalInstrs);
        f("conf", p.confidence);
    }

    /** Range rules (common/params.h), enabled only: empty when valid. */
    std::string
    check() const
    {
        if (!enabled)
            return {};
        if (intervalInstrs == 0)
            return "interval must be > 0";
        if (warmInstrs > periodInstrs ||
            intervalInstrs > periodInstrs - warmInstrs)
            return "period must cover warm + interval";
        if (!(confidence >= 0.5 && confidence < 1.0))
            return "conf must be in [0.5, 1)";
        return {};
    }
};

/** A sampled metric: mean over intervals ± CI half-width. */
struct SampleEstimate
{
    double mean = 0.0;
    double halfWidth = 0.0;
};

/** Result of one sampled measurement phase. */
struct SampleReport
{
    bool enabled = false;
    int intervals = 0;       ///< measured detailed intervals
    double confidence = 0.95;

    SampleEstimate cpi;      ///< cycles per instruction
    SampleEstimate ipc;      ///< instructions per cycle
    SampleEstimate userPct;  ///< retired-mode shares (percent)
    SampleEstimate kernelPct;
    SampleEstimate palPct;
    SampleEstimate idlePct;

    std::uint64_t functionalInstrs = 0; ///< fast-forwarded
    Cycle functionalCycles = 0;
    std::uint64_t detailedInstrs = 0;   ///< warm-up + measured
    Cycle detailedCycles = 0;

    std::vector<double> intervalCpi;    ///< raw per-interval CPI
};

/** z-score of a two-sided confidence level (0.90/0.95/0.99 ladder). */
double confidenceZ(double confidence);

/**
 * Run one sampled measurement of @p totalInstrs retired instructions
 * on @p sys (already started and past any startup phase). Leaves the
 * pipeline in Detailed fidelity. Functional fast-forward legs keep an
 * attached co-simulation oracle engaged — every retired instruction,
 * sampled or skipped, is still RefCore-checked.
 */
SampleReport runSampledMeasurement(System &sys, const SampleParams &p,
                                   std::uint64_t totalInstrs);

} // namespace smtos

#endif // SMTOS_HARNESS_SAMPLE_H
