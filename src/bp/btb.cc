#include "bp/btb.h"

#include "common/logging.h"

namespace smtos {

Btb::Btb(int entries, int assoc) : assoc_(assoc)
{
    smtos_assert(entries > 0 && assoc > 0 && entries % assoc == 0);
    // Power-of-two set count, checked in every build: setOf is a mask.
    const int sets = entries / assoc;
    smtos_assert((sets & (sets - 1)) == 0);
    setMask_ = static_cast<Addr>(sets) - 1;
    entries_.assign(static_cast<size_t>(entries), Entry{});
}

BtbResult
Btb::lookup(Addr pc, const AccessInfo &who)
{
    const int cls = who.isKernel() ? 1 : 0;
    ++stats_.accesses[cls];
    ++tick_;

    Entry *base = &entries_[static_cast<size_t>(setOf(pc)) *
                            static_cast<size_t>(assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].pc == pc) {
            base[w].lruStamp = tick_;
            return BtbResult{true, base[w].target};
        }
    }
    ++stats_.misses[cls];
    MissCause cause = classifier_.classify(pc, who);
    stats_.cause[cls][static_cast<int>(cause)]++;
    return BtbResult{};
}

bool
Btb::present(Addr pc) const
{
    const Entry *base = &entries_[static_cast<size_t>(setOf(pc)) *
                                  static_cast<size_t>(assoc_)];
    for (int w = 0; w < assoc_; ++w)
        if (base[w].valid && base[w].pc == pc)
            return true;
    return false;
}

void
Btb::update(Addr pc, Addr target, const AccessInfo &who)
{
    ++tick_;
    Entry *base = &entries_[static_cast<size_t>(setOf(pc)) *
                            static_cast<size_t>(assoc_)];
    // Refresh an existing entry.
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].pc == pc) {
            base[w].target = target;
            base[w].lruStamp = tick_;
            return;
        }
    }
    // Allocate: first invalid way, else LRU.
    Entry *victim = &base[0];
    for (int w = 0; w < assoc_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    if (victim->valid)
        classifier_.recordEviction(victim->pc, who);
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->lruStamp = tick_;
}

} // namespace smtos
