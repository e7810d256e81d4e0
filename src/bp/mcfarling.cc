#include "bp/mcfarling.h"

#include "common/logging.h"

namespace smtos {

namespace {

/** Saturating 2-bit counter update. */
inline void
bump(std::uint8_t &ctr, bool up)
{
    if (up) {
        if (ctr < 3) ++ctr;
    } else {
        if (ctr > 0) --ctr;
    }
}

inline bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

inline int
log2i(int v)
{
    int b = 0;
    while ((1 << b) < v)
        ++b;
    return b;
}

} // namespace

McFarling::McFarling(const McFarlingParams &params) : params_(params)
{
    smtos_assert(isPow2(params_.localHistEntries));
    smtos_assert(isPow2(params_.localPredEntries));
    smtos_assert(isPow2(params_.globalEntries));
    smtos_assert(isPow2(params_.chooserEntries));
    localHistBits_ = log2i(params_.localPredEntries);
    localHist_.assign(static_cast<size_t>(params_.localHistEntries), 0);
    // Weakly not-taken start; kernel diamond branches default to
    // fall-through, matching the paper's observation.
    localPred_.assign(static_cast<size_t>(params_.localPredEntries), 1);
    global_.assign(static_cast<size_t>(params_.globalEntries), 1);
    chooser_.assign(static_cast<size_t>(params_.chooserEntries), 2);
}

int
McFarling::localHistIndex(Addr pc) const
{
    return static_cast<int>((pc >> 2) &
                            (params_.localHistEntries - 1));
}

int
McFarling::localPredIndex(Addr pc) const
{
    const std::uint16_t hist = localHist_[localHistIndex(pc)];
    return hist & (params_.localPredEntries - 1);
}

int
McFarling::globalIndex(Addr pc) const
{
    return static_cast<int>((ghr_ ^ (pc >> 2)) &
                            static_cast<Addr>(params_.globalEntries - 1));
}

int
McFarling::chooserIndex() const
{
    return static_cast<int>(ghr_ &
                            static_cast<Addr>(params_.chooserEntries - 1));
}

bool
McFarling::predict(Addr pc) const
{
    if (chooser_[chooserIndex()] >= 2)
        return global_[globalIndex(pc)] >= 2;
    return localPred_[localPredIndex(pc)] >= 2;
}

void
McFarling::train(Addr pc, bool taken)
{
    const int lp = localPredIndex(pc);
    const int gi = globalIndex(pc);
    const int ci = chooserIndex();
    const bool local_correct = (localPred_[lp] >= 2) == taken;
    const bool global_correct = (global_[gi] >= 2) == taken;

    if (local_correct != global_correct)
        bump(chooser_[ci], global_correct);
    bump(localPred_[lp], taken);
    bump(global_[gi], taken);

    std::uint16_t &h = localHist_[localHistIndex(pc)];
    h = static_cast<std::uint16_t>(((h << 1) | (taken ? 1 : 0)) &
                                   ((1 << localHistBits_) - 1));
    pushHistory(taken);
}

void
McFarling::pushHistory(bool taken)
{
    ghr_ = (ghr_ << 1) | (taken ? 1 : 0);
}

} // namespace smtos
