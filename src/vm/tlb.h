/**
 * @file
 * Software-managed, ASN-tagged TLB (Alpha-style).
 *
 * The TLB is shared by all hardware contexts of the SMT (the paper's
 * key SMT-vs-SMP difference); entries carry an address space number so
 * multiple address spaces coexist without flushes. Misses are serviced
 * in software by the PAL/kernel handler, which installs entries via
 * insert() — the hardware never walks page tables itself.
 */

#ifndef SMTOS_VM_TLB_H
#define SMTOS_VM_TLB_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/missclass.h"
#include "vm/physmem.h"

namespace smtos {

class Probes;

/** A fully associative, round-robin-replacement, ASN-tagged TLB. */
class Tlb
{
  public:
    Tlb(std::string name, int entries);

    /** Attach (or detach, with nullptr) the observability hub. */
    void setProbes(Probes *p) { probes_ = p; }

    /**
     * Look up @p vpn under @p asn for @p who.
     * @return the mapped frame, or a negative value on miss.
     * Statistics (including the paper's conflict classification) are
     * updated as a side effect.
     */
    std::int64_t lookup(Addr vpn, Asn asn, const AccessInfo &who);

    /** Probe without statistics side effects. */
    bool present(Addr vpn, Asn asn) const;

    /**
     * Install a translation (the `tlbwrite` PAL operation). The
     * displaced entry, if any, is recorded for miss classification
     * against @p who.
     */
    void insert(Addr vpn, Asn asn, Frame frame, const AccessInfo &who,
                bool global = false);

    /** Invalidate every entry with the given ASN (OS operation). */
    void flushAsn(Asn asn);

    /** Invalidate everything (OS operation, e.g. ASN wraparound). */
    void flushAll();

    /** Invalidate one translation (OS unmap). */
    void flushPage(Addr vpn, Asn asn);

    /**
     * Invalidate the entry at @p idx (mod size) — fault injection's
     * model of a transient TLB parity error. Returns the normalized
     * index; the entry may already have been invalid.
     */
    std::uint64_t invalidateIndex(std::uint64_t idx);

    const InterferenceStats &stats() const { return stats_; }
    InterferenceStats &stats() { return stats_; }

    int size() const { return static_cast<int>(entries_.size()); }
    int validEntries() const;

    const std::string &name() const { return name_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

    /**
     * Host-side lookup accelerator: remembers which entry index last
     * held a given (vpn, asn) so lookup() can skip the linear scan.
     * Hints are validated against the entry before use, so a stale
     * hint only costs the scan it would have cost anyway — no
     * invalidation protocol is needed, and hit/miss results and all
     * statistics are identical with or without it. The slot hashes
     * the ASN too: SPECInt images all sit at userTextBase and Apache
     * processes share one layout, so VPNs alone collide.
     */
    static std::size_t hintSlot(Addr vpn, Asn asn)
    {
        return static_cast<std::size_t>(
            (key(vpn, asn) * 0x9E3779B97F4A7C15ull) >> (64 - hintBits));
    }

  private:
    static constexpr int hintBits = 13;
    static constexpr std::size_t hintSlots = std::size_t{1} << hintBits;

    struct Entry
    {
        bool valid = false;
        bool global = false; // matches any ASN (kernel mappings)
        Asn asn = -1;
        Addr vpn = 0;
        Frame frame = 0;
        ThreadId filler = invalidThread;
        bool fillerKernel = false;
        std::uint64_t touchedMask = 0;
    };

    /** Classification key folds the ASN with the VPN. */
    static Addr key(Addr vpn, Asn asn)
    {
        return (static_cast<Addr>(static_cast<std::uint32_t>(asn))
                << 44) | vpn;
    }

    /** tag_[i] mirrors entries_[i].vpn while valid (noTag when not):
     *  the associative scan compares one dense 8-byte array instead
     *  of walking the fat Entry structs, which also makes the
     *  guaranteed-full scan of every miss cheap. VPNs are at most 51
     *  bits, so noTag collides with nothing. */
    static constexpr Addr noTag = ~0ull;

    void rebuildTags()
    {
        tag_.assign(entries_.size(), noTag);
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].valid)
                tag_[i] = entries_[i].vpn;
    }

    std::string name_;
    Probes *probes_ = nullptr;
    std::vector<Entry> entries_;
    std::vector<Addr> tag_;
    std::vector<std::uint32_t> hint_; // entry index + 1; 0 = none
    int replacePtr_ = 0;
    MissClassifier classifier_;
    InterferenceStats stats_;
};

} // namespace smtos

#endif // SMTOS_VM_TLB_H
