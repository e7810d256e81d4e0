/**
 * @file
 * Miss-cause classification and constructive-sharing accounting.
 *
 * Tables 3 and 7 of the paper break every miss in a hardware structure
 * (BTB, caches, TLBs) into: intrathread conflict, interthread conflict,
 * user-kernel conflict, invalidation by the OS, and compulsory.
 * Table 8 reports misses *avoided* because another thread prefetched a
 * block. This header provides the shared machinery for both.
 */

#ifndef SMTOS_MEM_MISSCLASS_H
#define SMTOS_MEM_MISSCLASS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace smtos {

/** Identity of an access for interference accounting. */
struct AccessInfo
{
    ThreadId thread = invalidThread;
    Mode mode = Mode::User;
    CtxId ctx = invalidCtx;

    /** PAL references are accounted as kernel in the paper's tables. */
    bool isKernel() const { return mode != Mode::User; }
};

/** Why a miss happened (the paper's five conflict rows). */
enum class MissCause : std::uint8_t
{
    Compulsory = 0,     ///< first ever reference to the block
    Intrathread,        ///< evicted earlier by the same thread, same mode
    Interthread,        ///< evicted by a different thread, same mode class
    UserKernel,         ///< evicted by the other privilege class
    OsInvalidation,     ///< discarded by an explicit OS flush/invalidate
};

/** Number of MissCause values. */
constexpr int numMissCauses = 5;

/** Human-readable cause label matching the paper's row names. */
const char *missCauseName(MissCause c);

/**
 * Per-structure interference statistics, split by the privilege class
 * of the *missing* (or would-have-missed) reference as in the paper's
 * User / Kernel column pairs.
 */
struct InterferenceStats
{
    /** accesses[1] counts kernel+PAL references, accesses[0] user. */
    std::uint64_t accesses[2] = {0, 0};
    /** misses by privilege class of the missing reference. */
    std::uint64_t misses[2] = {0, 0};
    /** cause[missing class][MissCause]. */
    std::uint64_t cause[2][numMissCauses] = {{0}, {0}};
    /**
     * Misses avoided by constructive sharing:
     * avoided[accessor class][filler class].
     */
    std::uint64_t avoided[2][2] = {{0, 0}, {0, 0}};

    std::uint64_t totalAccesses() const { return accesses[0] + accesses[1]; }
    std::uint64_t totalMisses() const { return misses[0] + misses[1]; }

    /** Miss rate in percent, over all references or one class's. */
    double
    missRatePct() const
    {
        return pct(static_cast<double>(totalMisses()),
                   static_cast<double>(totalAccesses()));
    }
    double
    missRatePct(bool kernel) const
    {
        return pct(static_cast<double>(misses[kernel]),
                   static_cast<double>(accesses[kernel]));
    }

    void reset() { *this = InterferenceStats(); }

    /** The field list (common/counters.h). */
    template <typename F, typename... S>
    static void
    fields(F &&f, S &...s)
    {
        f("accesses", s.accesses...);
        f("misses", s.misses...);
        f("causes", s.cause...);
        f("avoided", s.avoided...);
    }
};

/**
 * Tracks, for every block address ever evicted from a structure, who
 * evicted it, so the next miss on that block can be classified.
 */
class MissClassifier
{
  public:
    /**
     * Classify a miss by @p who on @p blockAddr. Returns Compulsory when
     * the block has never been resident. Inline: this sits on every
     * miss in every structure at either fidelity.
     */
    MissCause
    classify(Addr blockAddr, const AccessInfo &who) const
    {
        const Evictor *ev = evictors_.find(blockAddr);
        if (!ev)
            return MissCause::Compulsory;
        if (ev->byInvalidation)
            return MissCause::OsInvalidation;
        if (ev->kernel != who.isKernel())
            return MissCause::UserKernel;
        if (ev->thread == who.thread)
            return MissCause::Intrathread;
        return MissCause::Interthread;
    }

    /** Record that @p who evicted @p blockAddr (capacity/conflict). */
    void
    recordEviction(Addr blockAddr, const AccessInfo &who)
    {
        evictors_.upsert(blockAddr) =
            Evictor{who.thread, who.isKernel(), false};
    }

    /** Record that the OS invalidated @p blockAddr via an explicit op. */
    void
    recordInvalidation(Addr blockAddr)
    {
        if (Evictor *ev = evictors_.findMutable(blockAddr))
            ev->byInvalidation = true;
        else
            evictors_.upsert(blockAddr) =
                Evictor{invalidThread, true, true};
    }

    /** Number of distinct blocks tracked (for tests). */
    std::size_t trackedBlocks() const { return evictors_.size(); }

    void clear() { evictors_.clear(); }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Evictor
    {
        ThreadId thread;
        bool kernel;
        bool byInvalidation;
    };

    /**
     * Open-addressing (linear probing) map from block address to its
     * last Evictor. Entries are only added or overwritten, never
     * erased, so probe chains stay intact without tombstones. Replaces
     * std::unordered_map on this path: the classifier is queried on
     * every miss, and chasing bucket nodes dominated its cost.
     */
    class EvictorTable
    {
      public:
        EvictorTable() : slots_(initialSlots) {}

        const Evictor *
        find(Addr key) const
        {
            const Slot &s = slots_[probe(key)];
            return s.used ? &s.ev : nullptr;
        }

        Evictor *
        findMutable(Addr key)
        {
            Slot &s = slots_[probe(key)];
            return s.used ? &s.ev : nullptr;
        }

        /** Insert (default-constructed) or locate @p key. */
        Evictor &
        upsert(Addr key)
        {
            // Grow at 70% occupancy, before probing for the insert.
            if ((size_ + 1) * 10 >= slots_.size() * 7)
                grow();
            Slot &s = slots_[probe(key)];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.ev = Evictor{};
                ++size_;
            }
            return s.ev;
        }

        std::size_t size() const { return size_; }

        void
        clear()
        {
            slots_.assign(initialSlots, Slot{});
            size_ = 0;
        }

        /** Visit every entry (unspecified order; snap() sorts keys). */
        template <typename F>
        void
        forEach(F &&f) const
        {
            for (const Slot &s : slots_)
                if (s.used)
                    f(s.key, s.ev);
        }

      private:
        struct Slot
        {
            Addr key = 0;
            Evictor ev{};
            bool used = false;
        };

        static constexpr std::size_t initialSlots = 1024;

        static std::size_t
        hashOf(Addr k)
        {
            // splitmix64 finalizer: full-avalanche, so clustered block
            // addresses spread over the table.
            k ^= k >> 33;
            k *= 0xff51afd7ed558ccdull;
            k ^= k >> 33;
            k *= 0xc4ceb9fe1a85ec53ull;
            k ^= k >> 33;
            return static_cast<std::size_t>(k);
        }

        /** Index of @p key's slot, or of the unused slot where it
         *  belongs. Capacity is a power of two; the load-factor cap
         *  guarantees an unused slot exists. */
        std::size_t
        probe(Addr key) const
        {
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = hashOf(key) & mask;
            while (slots_[i].used && slots_[i].key != key)
                i = (i + 1) & mask;
            return i;
        }

        void
        grow()
        {
            std::vector<Slot> old = std::move(slots_);
            slots_.assign(old.size() * 2, Slot{});
            for (const Slot &s : old) {
                if (!s.used)
                    continue;
                Slot &d = slots_[probe(s.key)];
                d = s;
            }
        }

        std::vector<Slot> slots_;
        std::size_t size_ = 0;
    };

    EvictorTable evictors_;
};

} // namespace smtos

#endif // SMTOS_MEM_MISSCLASS_H
