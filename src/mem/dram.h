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
 * The Table-1 memory latency, named in one place: the flat DRAM
 * default and HierarchyParams::dramLatency derive from it.
 */
constexpr Cycle defaultMemLatency = 90;

/** Fully pipelined fixed-latency DRAM. */
class Dram
{
  public:
    explicit Dram(Cycle latency = defaultMemLatency)
        : latency_(latency)
    {
    }

    /** @return completion cycle of an access arriving at @p now. */
    Cycle
    access(Cycle now)
    {
        ++accesses_;
        return now + latency_;
    }

    std::uint64_t accesses() const { return accesses_; }
    Cycle latency() const { return latency_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    Cycle latency_;
    std::uint64_t accesses_ = 0;
};

} // namespace smtos

#endif // SMTOS_MEM_DRAM_H
