/**
 * @file
 * Branch target buffer: 1K entries, 4-way set associative (Table 1),
 * with the same interference classification as the caches so Tables 3
 * and 7's BTB columns can be reproduced.
 */

#ifndef SMTOS_BP_BTB_H
#define SMTOS_BP_BTB_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/missclass.h"

namespace smtos {

/** Result of a BTB lookup. */
struct BtbResult
{
    bool hit = false;
    Addr target = 0;
};

/** Set-associative branch target buffer. */
class Btb
{
  public:
    Btb(int entries = 1024, int assoc = 4);

    /**
     * Look up the target for the control transfer at @p pc; updates
     * miss statistics and classification on behalf of @p who.
     */
    BtbResult lookup(Addr pc, const AccessInfo &who);

    /** Probe without statistics. */
    bool present(Addr pc) const;

    /** Install/refresh the target after a taken control transfer. */
    void update(Addr pc, Addr target, const AccessInfo &who);

    const InterferenceStats &stats() const { return stats_; }

    /** Hits whose stored target was stale (indirect-jump churn). */
    std::uint64_t wrongTargetHits() const { return wrongTarget_; }
    void noteWrongTarget() { ++wrongTarget_; }

    void resetStats()
    {
        stats_.reset();
        wrongTarget_ = 0;
    }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };

    int setOf(Addr pc) const
    {
        return static_cast<int>((pc >> 2) & setMask_);
    }

    int assoc_;
    Addr setMask_; ///< the set count (a power of two) minus one
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    MissClassifier classifier_;
    InterferenceStats stats_;
    std::uint64_t wrongTarget_ = 0;
};

} // namespace smtos

#endif // SMTOS_BP_BTB_H
