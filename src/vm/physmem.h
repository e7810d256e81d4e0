/**
 * @file
 * Physical frame allocator for the simulated 128MB of memory.
 *
 * The kernel's page-allocation path allocates real frames from this
 * pool, and the PAL TLB-miss handler walks page tables that live in
 * frames allocated here, so kernel memory-management activity creates
 * genuine cache traffic.
 */

#ifndef SMTOS_VM_PHYSMEM_H
#define SMTOS_VM_PHYSMEM_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtos {

/** Physical frame number. */
using Frame = std::uint64_t;

/** Bump-then-freelist physical frame allocator. */
class PhysMem
{
  public:
    /**
     * @param bytes total physical memory (Table 1: 128MB)
     * @param reserved_bytes low region reserved for kernel text/data
     */
    explicit PhysMem(std::uint64_t bytes = 128ull * 1024 * 1024,
                     std::uint64_t reserved_bytes = 16ull * 1024 * 1024);

    /** Allocate one frame; fatal when memory is exhausted. */
    Frame allocFrame();

    /** Return a frame to the pool. */
    void freeFrame(Frame f);

    /** Frames still allocatable. */
    std::uint64_t freeFrames() const;

    /** Total frames (including reserved). */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** First allocatable frame (above the kernel reservation). */
    Frame firstAllocatable() const { return firstAlloc_; }

    /** Physical byte address of the start of frame @p f. */
    static Addr frameAddr(Frame f) { return f << pageShift; }

    /** Frames handed out and not yet freed. */
    std::uint64_t allocated() const { return allocated_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::uint64_t totalFrames_;
    Frame firstAlloc_;
    Frame bump_;
    std::vector<Frame> freeList_;
    std::uint64_t allocated_ = 0;
};

} // namespace smtos

#endif // SMTOS_VM_PHYSMEM_H
