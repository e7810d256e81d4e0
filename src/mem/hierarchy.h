/**
 * @file
 * The full memory hierarchy of Table 1: split 128KB 2-way L1s, a 16MB
 * direct-mapped L2, MSHRs, a store buffer, the L1-L2 and memory buses,
 * and DRAM. Timing is computed by latency composition over the shared
 * structural resources (buses, MSHRs), which captures queueing and
 * bandwidth contention without a full event queue.
 *
 * The hierarchy is split at the chip's L2 seam. Each core owns a
 * Hierarchy (its L1s, L1 MSHRs, and store buffer); the chip owns one
 * Uncore (the L2, its MSHRs, both buses, the memory controller, and
 * the coherence hub that keeps the cores' L1s coherent). A one-core
 * machine is the same chip with a single Hierarchy attached.
 */

#ifndef SMTOS_MEM_HIERARCHY_H
#define SMTOS_MEM_HIERARCHY_H

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/coherence.h"
#include "mem/dram.h"
#include "mem/memctrl.h"
#include "mem/mshr.h"
#include "mem/storebuffer.h"

namespace smtos {

/** All memory-system parameters (Table 1 defaults). */
struct HierarchyParams
{
    CacheParams l1i{"L1I", 128 * 1024, 2, 64};
    CacheParams l1d{"L1D", 128 * 1024, 2, 64};
    CacheParams l2{"L2", 16 * 1024 * 1024, 1, 64};
    Cycle l1HitLatency = 1;
    Cycle l1FillPenalty = 2;
    Cycle l2Latency = 20;
    int l1MshrEntries = 32;
    int l2MshrEntries = 32;
    int storeBufferEntries = 32;
    int l1l2BusBytesPerCycle = 32;  // 256 bits
    Cycle l1l2BusLatency = 2;
    int memBusBytesPerCycle = 16;   // 128 bits
    Cycle memBusLatency = 4;
    /** Banked-DRAM geometry/policy (banked=false: flat model). */
    DramParams dram;
    /**
     * Table 9 mode: kernel and PAL references complete at L1 hit
     * latency without touching any cache state, isolating user-only
     * behavior of the hardware structures.
     */
    bool filterPrivileged = false;
};

/** Timing/result of one memory reference. */
struct MemResult
{
    bool l1Hit = false;
    bool l2Hit = false;
    Cycle readyAt = 0;
};

/** The chip's shared memory side, below every core's L1s. */
class Uncore
{
  public:
    explicit Uncore(const HierarchyParams &params);
    /** Every core's Hierarchy and the kernel hold its address. */
    Uncore(const Uncore &) = delete;
    Uncore &operator=(const Uncore &) = delete;

    /**
     * Serve an L1 miss whose L2 lookup completes at @p l2Done: an L2
     * hit returns the line over the L1-L2 bus; a miss goes through the
     * L2 MSHRs, the memory bus and the memory controller first.
     * Returns the cycle the line reaches the L1 (@p l1LineBytes wide).
     */
    Cycle fill(Addr paddr, const AccessInfo &who, bool is_write,
               Cycle l2Done, int l1LineBytes, bool &l2Hit);

    /** DMA write into memory (disk reads): invalidates the stale L2
     *  copy and every core's L1D copy. */
    void dmaWrite(Addr paddr, int bytes);

    Cache &l2() { return l2_; }
    const Cache &l2() const { return l2_; }
    MshrFile &l2Mshr() { return l2Mshr_; }
    const MshrFile &l2Mshr() const { return l2Mshr_; }
    Bus &l1l2Bus() { return l1l2Bus_; }
    Dram &dram() { return memctrl_.flat(); }
    MemCtrl &memctrl() { return memctrl_; }
    const MemCtrl &memctrl() const { return memctrl_; }
    CoherenceHub &coherence() { return hub_; }
    const CoherenceHub &coherence() const { return hub_; }

    /** L2 miss occupancy integral for Table 6 reporting. */
    double l2missIntegral() const { return l2missIntegral_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    Cache l2_;
    MshrFile l2Mshr_;
    Bus l1l2Bus_;
    Bus memBus_;
    MemCtrl memctrl_;
    CoherenceHub hub_;
    double l2missIntegral_ = 0.0;
};

/** One core's private side of the memory system. */
class Hierarchy
{
  public:
    /** Build the private structures and attach to @p uncore as its
     *  next core (core ids follow attachment order). */
    Hierarchy(const HierarchyParams &params, Uncore &uncore);
    /** The coherence hub holds its address. */
    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /** Data reference (load or store) to physical address @p paddr. */
    MemResult data(Addr paddr, const AccessInfo &who, bool is_write,
                   Cycle now);

    /** Instruction fetch reference to physical address @p paddr. */
    MemResult fetch(Addr paddr, const AccessInfo &who, Cycle now);

    /**
     * Warming-only references for the functional fidelity: tag state
     * in the L1s and L2 (hits, allocations, replacement order) is
     * updated exactly as by data()/fetch(), but no timing is composed
     * — MSHRs, buses, the memory controller and the occupancy
     * integrals are untouched, so a later detailed interval sees warm
     * caches with cold (drained) timing structures.
     */
    void warmFetch(Addr paddr, const AccessInfo &who);
    void warmData(Addr paddr, const AccessInfo &who, bool is_write);

    /** OS instruction-cache flush (e.g. on instruction page remap). */
    void flushIcache();

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    MshrFile &l1Mshr() { return l1Mshr_; }
    const MshrFile &l1Mshr() const { return l1Mshr_; }
    StoreBuffer &storeBuffer() { return storeBuffer_; }
    const StoreBuffer &storeBuffer() const { return storeBuffer_; }

    /** Occupancy integrals split per L1 for Table 6 reporting. */
    double imissIntegral() const { return imissIntegral_; }
    double dmissIntegral() const { return dmissIntegral_; }

    const HierarchyParams &params() const { return params_; }

    static constexpr std::uint32_t snapVersion = 2;
    template <typename Ar> void snap(Ar &ar);

  private:
    /** Common L1-miss path; returns fill completion time. */
    MemResult missPath(Cache &l1, Addr paddr, const AccessInfo &who,
                       bool is_write, Cycle now, bool is_ifetch);

    HierarchyParams params_;
    Uncore &uncore_;
    int coreId_;
    Cache l1i_;
    Cache l1d_;
    MshrFile l1Mshr_;
    StoreBuffer storeBuffer_;
    double imissIntegral_ = 0.0;
    double dmissIntegral_ = 0.0;
};

} // namespace smtos

#endif // SMTOS_MEM_HIERARCHY_H
