/**
 * @file
 * Miss status holding registers.
 *
 * The MSHR file bounds the number of outstanding misses a cache level
 * may have in flight, merges requests to the same block, and keeps the
 * occupancy integral used for the paper's "average number of
 * outstanding misses" metric (Table 6).
 */

#ifndef SMTOS_MEM_MSHR_H
#define SMTOS_MEM_MSHR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace smtos {

/** Result of requesting an MSHR for a missing block. */
struct MshrGrant
{
    /** Cycle at which the miss handling may begin (>= request time when
     *  the file was full and the request had to wait for a free slot,
     *  or when it merged into an existing fill). */
    Cycle startAt = 0;
    /** True when the request merged into an in-flight fill. */
    bool merged = false;
    /** readyAt of the merged fill (valid when merged). */
    Cycle mergedReadyAt = 0;
};

/** A fixed-size MSHR file. */
class MshrFile
{
  public:
    MshrFile(std::string name, int entries);

    /**
     * Request handling of a miss on @p blockAddr observed at @p now.
     * If an in-flight fill of the block exists the request merges.
     * Otherwise a free entry is claimed; if none is free the request
     * stalls until the earliest in-flight fill completes.
     *
     * After a non-merged grant the caller must call complete() to set
     * the fill completion time.
     */
    MshrGrant request(Addr blockAddr, Cycle now);

    /** Finish allocation: the granted fill completes at @p readyAt. */
    void complete(Addr blockAddr, Cycle startAt, Cycle readyAt);

    /**
     * A cache hit on a block whose fill is still in flight must wait
     * for the fill; counts as a merged request. Returns the fill's
     * completion time, or 0 when no fill is outstanding.
     */
    Cycle hitUnderFill(Addr blockAddr, Cycle now);

    /** Entries currently in flight at @p now. */
    int outstanding(Cycle now) const;

    /** Total misses that entered the file (non-merged). */
    std::uint64_t fills() const { return fills_; }

    /** Requests that merged into an existing fill. */
    std::uint64_t merges() const { return merges_; }

    /** Requests delayed because the file was full. */
    std::uint64_t fullStalls() const { return fullStalls_; }

    /**
     * Sum over all fills of their in-flight duration; dividing by
     * elapsed cycles yields average outstanding misses.
     */
    double occupancyIntegral() const { return occupancyIntegral_; }

    int size() const { return static_cast<int>(entries_.size()); }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Entry
    {
        bool valid = false;
        Addr blockAddr = 0;
        Cycle readyAt = 0;
    };

    void releaseExpired(Cycle now);

    std::string name_;
    std::vector<Entry> entries_;
    std::uint64_t fills_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t fullStalls_ = 0;
    double occupancyIntegral_ = 0.0;
};

} // namespace smtos

#endif // SMTOS_MEM_MSHR_H
