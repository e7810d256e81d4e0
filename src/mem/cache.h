/**
 * @file
 * Set-associative cache tag model with interference classification.
 *
 * The cache is a tag-array-only (functional) model: data movement is
 * represented by timing in the Hierarchy, while this class answers
 * hit/miss, performs LRU replacement, and attributes every miss and
 * every constructively-shared hit per the paper's methodology.
 */

#ifndef SMTOS_MEM_CACHE_H
#define SMTOS_MEM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/types.h"
#include "mem/missclass.h"

namespace smtos {

class Probes;

/** Geometry and identity of a cache. The line size and the set count
 *  (sizeBytes / lineBytes / assoc) are powers of two. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 128 * 1024;
    int assoc = 2;
    int lineBytes = 64;
};

/** Result of a single cache access. */
struct CacheOutcome
{
    bool hit = false;
    /** Valid only when !hit. */
    MissCause cause = MissCause::Compulsory;
    /** Hit that would have been a miss without another thread's fill. */
    bool sharedAvoidance = false;
    /** Privilege class of the filler, valid when sharedAvoidance. */
    bool fillerKernel = false;
    /** Dirty block displaced by the fill (writeback traffic). */
    bool dirtyEviction = false;
};

/**
 * A write-back, write-allocate set-associative cache with true-LRU
 * replacement and per-line filler metadata.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Attach (or detach, with nullptr) the observability hub. */
    void setProbes(Probes *p) { probes_ = p; }

    /**
     * Perform one access. On a miss the block is filled (allocated) and
     * the victim's eviction is recorded for future classification.
     *
     * @param addr byte address (any address within the block)
     * @param who accessing thread/mode identity
     * @param is_write true for stores
     */
    CacheOutcome access(Addr addr, const AccessInfo &who, bool is_write);

    /** Probe without side effects (tests, snoop checks). */
    bool probe(Addr addr) const;

    /**
     * Invalidate the entire cache as an explicit OS operation (e.g. the
     * Alpha I-cache flush on instruction page remapping). All resident
     * blocks are recorded as OS-invalidated for later classification.
     */
    void invalidateAll();

    /** Invalidate a single block as an explicit OS operation. */
    void invalidateBlock(Addr addr);

    // --- Snoop interface (coherence hub; see mem/coherence.h).
    // --- Snoops never touch statistics: coherence traffic is counted
    // --- at the hub. ---
    /** Snoop-invalidate a block (remote store). @return true when the
     *  invalidated copy was dirty (intervention writeback). */
    bool snoopInvalidate(Addr addr);
    /** Snoop-downgrade a block M->S (remote load): the copy stays
     *  resident but loses dirty ownership. @return true when it was
     *  dirty (a writeback to the shared level happened). */
    bool snoopDowngrade(Addr addr);
    /** True when the block is resident and dirty (modified state). */
    bool probeDirty(Addr addr) const;

    /**
     * Invalidate the line at @p idx (mod the number of lines) — fault
     * injection's model of a transient tag/data parity error. Returns
     * the normalized index; the line may already have been invalid.
     */
    std::uint64_t invalidateIndex(std::uint64_t idx);

    const CacheParams &params() const { return params_; }
    const InterferenceStats &stats() const { return stats_; }
    InterferenceStats &stats() { return stats_; }

    int numSets() const { return numSets_; }

    /** Block (line) index of a byte address — public so callers that
     *  track per-line access discipline (the fetch stages) share the
     *  cache's own geometry arithmetic. */
    Addr blockOf(Addr addr) const { return addr >> lineShift_; }

    static constexpr std::uint32_t snapVersion = 2;
    template <typename Ar> void snap(Ar &ar);

  private:
    /** One way: 32 bytes, so a 2-way set is one 64-byte host line and
     *  a direct-mapped probe reads half of one. */
    struct Line
    {
        Addr blockAddr = 0;
        std::uint64_t lruStamp = 0;
        /** Threads (id mod 64) that touched the block since fill. */
        std::uint64_t touchedMask = 0;
        ThreadId fillerThread = invalidThread;
        bool valid = false;
        bool dirty = false;
        bool fillerKernel = false;
    };
    static_assert(sizeof(Line) == 32);

    int setOf(Addr blockAddr) const
    {
        return static_cast<int>(blockAddr & setMask_);
    }

    /** Index in lines_ of the first way of @p block's set. */
    std::size_t setBase(Addr block) const
    {
        return static_cast<std::size_t>(setOf(block)) *
               static_cast<std::size_t>(params_.assoc);
    }

    CacheParams params_;
    Probes *probes_ = nullptr;
    int numSets_;
    int lineShift_ = 0;
    Addr setMask_ = 0;
    /** Backing bytes of lines_, one host line longer than the ways.
     *  A plain allocation, not an aligned one: glibc's aligned
     *  allocator leaves heap fragments that keep freed L2 arrays
     *  resident. */
    std::unique_ptr<std::byte[]> wayBytes_;
    /** numSets_ * assoc ways, set-major, from the first 64-byte
     *  boundary of wayBytes_. An invalidated way keeps its stale
     *  blockAddr, so matches test valid first. */
    std::span<Line> lines_;
    std::uint64_t tick_ = 0;
    MissClassifier classifier_;
    InterferenceStats stats_;
};

} // namespace smtos

#endif // SMTOS_MEM_CACHE_H
