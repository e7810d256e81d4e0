#include "vm/tlb.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/probes.h"

namespace smtos {

Tlb::Tlb(std::string name, int entries) : name_(std::move(name))
{
    smtos_assert(entries > 0);
    entries_.assign(static_cast<size_t>(entries), Entry{});
    tag_.assign(static_cast<size_t>(entries), noTag);
    hint_.assign(hintSlots, 0);
}

std::int64_t
Tlb::lookup(Addr vpn, Asn asn, const AccessInfo &who)
{
    const int cls = who.isKernel() ? 1 : 0;
    ++stats_.accesses[cls];
    auto hit = [&](Entry &e) {
        // Constructive sharing: first use by a thread of an entry
        // another thread installed (Table 8's TLB columns).
        const std::uint64_t bit =
            1ull << (static_cast<std::uint64_t>(who.thread) & 63);
        if (e.filler != who.thread && !(e.touchedMask & bit))
            ++stats_.avoided[cls][e.fillerKernel ? 1 : 0];
        e.touchedMask |= bit;
        return static_cast<std::int64_t>(e.frame);
    };
    std::uint32_t &hint = hint_[hintSlot(vpn, asn)];
    if (hint != 0) {
        Entry &e = entries_[hint - 1];
        if (e.valid && e.vpn == vpn && (e.global || e.asn == asn))
            return hit(e);
    }
    for (std::size_t i = 0; i < tag_.size(); ++i) {
        if (tag_[i] != vpn)
            continue;
        Entry &e = entries_[i];
        if (e.global || e.asn == asn) {
            hint = static_cast<std::uint32_t>(i) + 1;
            return hit(e);
        }
    }
    ++stats_.misses[cls];
    MissCause cause = classifier_.classify(key(vpn, asn), who);
    stats_.cause[cls][static_cast<int>(cause)]++;
    if (probes_)
        probes_->tlbMiss(name_.c_str(), who.thread, vpn << pageShift);
    return -1;
}

bool
Tlb::present(Addr vpn, Asn asn) const
{
    for (const Entry &e : entries_)
        if (e.valid && e.vpn == vpn && (e.global || e.asn == asn))
            return true;
    return false;
}

void
Tlb::insert(Addr vpn, Asn asn, Frame frame, const AccessInfo &who,
            bool global)
{
    // Refuse duplicate installs (can happen when two contexts miss on
    // the same page concurrently; the second install is a no-op).
    if (present(vpn, asn))
        return;

    Entry &victim = entries_[static_cast<size_t>(replacePtr_)];
    hint_[hintSlot(vpn, asn)] =
        static_cast<std::uint32_t>(replacePtr_) + 1;
    replacePtr_ = (replacePtr_ + 1) % static_cast<int>(entries_.size());
    if (victim.valid)
        classifier_.recordEviction(key(victim.vpn, victim.asn), who);
    tag_[static_cast<size_t>(&victim - entries_.data())] = vpn;
    victim.valid = true;
    victim.global = global;
    victim.asn = asn;
    victim.vpn = vpn;
    victim.frame = frame;
    victim.filler = who.thread;
    victim.fillerKernel = who.isKernel();
    victim.touchedMask =
        1ull << (static_cast<std::uint64_t>(who.thread) & 63);
}

void
Tlb::flushAsn(Asn asn)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (e.valid && !e.global && e.asn == asn) {
            classifier_.recordInvalidation(key(e.vpn, e.asn));
            e.valid = false;
            tag_[i] = noTag;
        }
    }
}

void
Tlb::flushAll()
{
    for (Entry &e : entries_) {
        if (e.valid) {
            classifier_.recordInvalidation(key(e.vpn, e.asn));
            e.valid = false;
        }
    }
    std::fill(tag_.begin(), tag_.end(), noTag);
}

std::uint64_t
Tlb::invalidateIndex(std::uint64_t idx)
{
    idx %= entries_.size();
    Entry &e = entries_[idx];
    if (e.valid) {
        classifier_.recordInvalidation(key(e.vpn, e.asn));
        e.valid = false;
        tag_[idx] = noTag;
    }
    return idx;
}

void
Tlb::flushPage(Addr vpn, Asn asn)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (e.valid && e.vpn == vpn && (e.global || e.asn == asn)) {
            classifier_.recordInvalidation(key(e.vpn, e.asn));
            e.valid = false;
            tag_[i] = noTag;
        }
    }
}

int
Tlb::validEntries() const
{
    int n = 0;
    for (const Entry &e : entries_)
        if (e.valid)
            ++n;
    return n;
}

} // namespace smtos
