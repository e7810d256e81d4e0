/**
 * @file
 * Physical memory timing model: fixed latency, fully pipelined
 * (Table 1: 128MB, 90-cycle latency).
 */

#ifndef SMTOS_MEM_DRAM_H
#define SMTOS_MEM_DRAM_H

#include <cstdint>

#include "common/types.h"

namespace smtos {

/**
 * The Table-1 memory latency, named in one place: the flat DRAM's
 * latency, and the banked model's row-conflict timing is anchored to
 * it (DramParams).
 */
constexpr Cycle defaultMemLatency = 90;

/** Fully pipelined fixed-latency DRAM. */
class Dram
{
  public:
    /** @return completion cycle of an access arriving at @p now. */
    Cycle
    access(Cycle now)
    {
        ++accesses_;
        return now + defaultMemLatency;
    }

    std::uint64_t accesses() const { return accesses_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::uint64_t accesses_ = 0;
};

} // namespace smtos

#endif // SMTOS_MEM_DRAM_H
