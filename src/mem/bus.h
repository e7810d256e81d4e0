/**
 * @file
 * Bandwidth-limited split-transaction bus model (L1-L2 bus and memory
 * bus in Table 1).
 */

#ifndef SMTOS_MEM_BUS_H
#define SMTOS_MEM_BUS_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace smtos {

/** A pipelined bus with fixed latency and per-cycle byte bandwidth. */
class Bus
{
  public:
    /**
     * @param name display name
     * @param bytes_per_cycle data width in bytes transferred per cycle
     * @param latency cycles of fixed transfer latency
     */
    Bus(std::string name, int bytes_per_cycle, Cycle latency);

    /**
     * Schedule a transfer of @p bytes arriving at @p now.
     * @return cycle at which the transfer completes at the far side.
     */
    Cycle transfer(Cycle now, int bytes);

    /** Number of transactions carried. */
    std::uint64_t transactions() const { return transactions_; }

    /** Total cycles transactions waited for the bus to free up. */
    std::uint64_t queueingDelay() const { return queueingDelay_; }

    /** Average queueing delay per transaction in cycles. */
    double avgDelay() const;

    const std::string &name() const { return name_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::string name_;
    int bytesPerCycle_;
    Cycle latency_;
    Cycle nextFree_ = 0;
    std::uint64_t transactions_ = 0;
    std::uint64_t queueingDelay_ = 0;
};

} // namespace smtos

#endif // SMTOS_MEM_BUS_H
