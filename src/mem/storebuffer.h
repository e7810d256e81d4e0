/**
 * @file
 * Store buffer model (Table 1: 32 entries).
 *
 * Retired stores enter the buffer and drain to the data cache in the
 * background; the pipeline only stalls when the buffer is full.
 */

#ifndef SMTOS_MEM_STOREBUFFER_H
#define SMTOS_MEM_STOREBUFFER_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtos {

/** A bounded buffer of in-flight stores, each with a drain time. */
class StoreBuffer
{
  public:
    explicit StoreBuffer(int entries);

    /**
     * Insert a store observed at @p now whose cache write completes at
     * @p drain_done. If the buffer is full, the insertion is delayed
     * until the earliest drain completes.
     *
     * @return the cycle at which the store actually entered the buffer
     *         (== now unless a full-buffer stall occurred).
     */
    Cycle push(Cycle now, Cycle drain_done);

    /** Entries occupied at @p now. */
    int occupancy(Cycle now) const;

    bool full(Cycle now) const;

    std::uint64_t stores() const { return stores_; }
    std::uint64_t fullStalls() const { return fullStalls_; }
    int size() const { return static_cast<int>(drains_.size()); }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    void releaseExpired(Cycle now);

    std::vector<Cycle> drains_; // 0 == free slot sentinel handled by valid_
    std::vector<bool> valid_;
    std::uint64_t stores_ = 0;
    std::uint64_t fullStalls_ = 0;
};

} // namespace smtos

#endif // SMTOS_MEM_STOREBUFFER_H
