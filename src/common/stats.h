/**
 * @file
 * Lightweight statistics primitives used by the metrics layer.
 */

#ifndef SMTOS_COMMON_STATS_H
#define SMTOS_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"

namespace smtos {

/** Percentage of part within whole; 0 when whole is 0. */
inline double
pct(double part, double whole)
{
    return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

/** Ratio of part to whole; 0 when whole is 0. */
inline double
ratio(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

/**
 * Running scalar sampler: accumulates samples and reports count, sum,
 * mean, min and max. Used for occupancy statistics such as average
 * outstanding cache misses or fetchable contexts per cycle.
 */
class Sampler
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_) min_ = v;
        if (count_ == 0 || v > max_) max_ = v;
        sum_ += v;
        ++count_;
    }

    /**
     * Record @p k identical samples of @p v at once (quiescence
     * fast-forward). Exact for v == 0 (the idle-cycle case): the sum
     * is unchanged, matching k individual sample(0.0) calls bit for
     * bit.
     */
    void
    sampleN(double v, std::uint64_t k)
    {
        if (k == 0)
            return;
        if (count_ == 0 || v < min_) min_ = v;
        if (count_ == 0 || v > max_) max_ = v;
        if (v != 0.0)
            sum_ += v * static_cast<double>(k);
        count_ += k;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    /** Build a sampler representing an interval difference. */
    static Sampler
    fromSumCount(double sum, std::uint64_t count)
    {
        Sampler s;
        s.sum_ = sum;
        s.count_ = count;
        return s;
    }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bucket histogram over integer values; out-of-range samples are
 * clamped into the terminal buckets.
 */
class Histogram
{
  public:
    Histogram(std::int64_t lo, std::int64_t hi, int buckets);

    void sample(std::int64_t v, std::uint64_t weight = 1);

    int numBuckets() const { return static_cast<int>(counts_.size()); }
    std::uint64_t bucketCount(int i) const { return counts_.at(i); }
    std::uint64_t totalSamples() const { return total_; }

    /** Inclusive lower bound of bucket i. */
    std::int64_t bucketLo(int i) const;

    /** Exclusive upper bound of bucket i (== bucketLo(i + 1)). */
    std::int64_t bucketHi(int i) const;

    /**
     * Quantile estimate from the bucket counts, @p q in [0, 1], with
     * linear interpolation inside the containing bucket. Because
     * out-of-range samples are clamped into the terminal buckets, the
     * estimate is itself clamped to [lo, hi]; an empty histogram
     * reports 0.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }

    double mean() const { return total_ ? weightedSum_ / total_ : 0.0; }

    void reset();

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::int64_t lo_;
    std::int64_t hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double weightedSum_ = 0.0;
};

/**
 * Named counter map for ad-hoc event accounting (e.g. kernel entries by
 * reason). Iteration order is deterministic (sorted by name).
 */
class CounterMap
{
  public:
    void add(const std::string &name, std::uint64_t n = 1)
    {
        counts_[name] += n;
    }

    std::uint64_t get(const std::string &name) const;
    std::uint64_t total() const;
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counts_;
    }

    void reset() { counts_.clear(); }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::map<std::string, std::uint64_t> counts_;
};

} // namespace smtos

#endif // SMTOS_COMMON_STATS_H
