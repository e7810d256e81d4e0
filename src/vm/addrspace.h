/**
 * @file
 * Per-process address spaces with real (frame-backed) page tables.
 *
 * Translations are stored in page-table pages whose physical addresses
 * are visible, so the software TLB-miss handler's PTE loads hit the
 * actual memory hierarchy at the actual PTE locations.
 *
 * A small direct-mapped host-side cache sits in front of the hash
 * maps: positive translations (vpn -> frame) and page-table frames
 * are remembered per slot and invalidated exactly on unmap. The cache
 * is a pure host optimization — hits return the same values the maps
 * would, so simulation results are bit-identical with it on or off
 * (setHostCacheEnabled, used by the perf bit-identity tests).
 */

#ifndef SMTOS_VM_ADDRSPACE_H
#define SMTOS_VM_ADDRSPACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "vm/physmem.h"

namespace smtos {

/** PTEs per page-table page (4KB / 8B). */
constexpr Addr ptesPerPage = pageBytes / 8;

/** One virtual address space (a process, or the kernel). */
class AddrSpace
{
  public:
    /**
     * @param id stable address-space identifier
     * @param mem backing frame allocator (must outlive this object)
     */
    AddrSpace(int id, PhysMem &mem) : id_(id), mem_(&mem)
    {
        for (auto &w : pageCache_)
            w.vpn = invalidVpn;
        for (auto &w : ptCache_)
            w.vpn = invalidVpn;
    }

    /** Stable identity (not the ASN; ASNs are assigned by the OS). */
    int id() const { return id_; }

    /** Currently assigned ASN (set by the scheduler). */
    Asn asn() const { return asn_; }
    void setAsn(Asn a) { asn_ = a; }

    /** True when @p vpn has a valid translation. */
    bool mapped(Addr vpn) const { return translate(vpn) >= 0; }

    /** Translate; panics when unmapped (callers must check/fault). */
    Frame frameOf(Addr vpn) const;

    /**
     * Combined lookup: the mapped frame, or a negative value when
     * @p vpn has no translation. One probe where callers previously
     * paid a mapped() + frameOf() pair.
     */
    std::int64_t translate(Addr vpn) const;

    /** Map @p vpn to a freshly allocated frame; returns the frame. */
    Frame mapNew(Addr vpn);

    /** Map @p vpn to an existing frame (shared mappings). */
    void mapShared(Addr vpn, Frame f);

    /** Remove a translation; frees the frame when @p free_frame. */
    void unmap(Addr vpn, bool free_frame);

    /**
     * Physical address of the PTE for @p vpn. Allocates the backing
     * page-table page on first use (counted as kernel metadata).
     */
    Addr ptePhysAddr(Addr vpn);

    /** Number of mapped pages. */
    std::size_t residentPages() const { return pages_.size(); }

    /**
     * Globally enable/disable the host translation cache (on by
     * default). Read-only during simulation; the perf suite flips it
     * between runs to prove bit-identity.
     */
    static void setHostCacheEnabled(bool on)
    {
        hostCacheEnabled_.store(on, std::memory_order_relaxed);
    }
    static bool hostCacheEnabled()
    {
        return hostCacheEnabled_.load(std::memory_order_relaxed);
    }

    static constexpr std::uint32_t snapVersion = 1;
    /** Loading overwrites the page maps and restarts the host
     *  caches cold. */
    template <typename Ar> void snap(Ar &ar);

  private:
    static constexpr Addr invalidVpn = ~Addr{0};
    static constexpr std::size_t cacheWays = 64; // power of two

    struct Way
    {
        Addr vpn = ~Addr{0};
        Frame frame = 0;
    };

    static std::size_t slotOf(Addr vpn)
    {
        return static_cast<std::size_t>(vpn) & (cacheWays - 1);
    }

    static std::atomic<bool> hostCacheEnabled_;

    int id_;
    PhysMem *mem_;
    Asn asn_ = -1;
    std::unordered_map<Addr, Frame> pages_;
    std::unordered_map<Addr, Frame> ptPages_; // vpn>>9 -> PT frame
    /** Positive vpn->frame cache (cleared per-slot on unmap). */
    mutable std::array<Way, cacheWays> pageCache_;
    /** pt_index->frame cache (PT pages are never unmapped). */
    mutable std::array<Way, cacheWays> ptCache_;
};

} // namespace smtos

#endif // SMTOS_VM_ADDRSPACE_H
