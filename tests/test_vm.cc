/**
 * @file
 * Virtual memory tests: frame allocation, page tables, and the
 * ASN-tagged shared TLB.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/program.h"
#include "vm/addrspace.h"
#include "vm/physmem.h"
#include "vm/tlb.h"

using namespace smtos;

namespace {

AccessInfo
user(ThreadId t)
{
    return AccessInfo{t, Mode::User, 0};
}

} // namespace

TEST(PhysMem, AllocationAboveReservation)
{
    PhysMem pm(1 << 20, 64 << 10); // 256 frames, 16 reserved
    EXPECT_EQ(pm.totalFrames(), 256u);
    EXPECT_EQ(pm.firstAllocatable(), 16u);
    Frame f = pm.allocFrame();
    EXPECT_GE(f, 16u);
}

TEST(PhysMem, FreeListReuse)
{
    PhysMem pm(1 << 20, 64 << 10);
    Frame f = pm.allocFrame();
    pm.freeFrame(f);
    EXPECT_EQ(pm.allocFrame(), f);
}

TEST(PhysMem, CountsAllocated)
{
    PhysMem pm(1 << 20, 64 << 10);
    const auto before = pm.freeFrames();
    Frame f = pm.allocFrame();
    pm.allocFrame();
    EXPECT_EQ(pm.allocated(), 2u);
    EXPECT_EQ(pm.freeFrames(), before - 2);
    pm.freeFrame(f);
    EXPECT_EQ(pm.allocated(), 1u);
}

TEST(PhysMem, ExhaustionIsFatal)
{
    PhysMem pm(128 << 10, 64 << 10); // 16 allocatable frames
    for (int i = 0; i < 16; ++i)
        pm.allocFrame();
    EXPECT_EXIT(pm.allocFrame(), testing::ExitedWithCode(1),
                "exhausted");
}

TEST(PhysMem, FrameAddr)
{
    EXPECT_EQ(PhysMem::frameAddr(3), 3u * 4096u);
}

TEST(AddrSpace, MapNewAndTranslate)
{
    PhysMem pm;
    AddrSpace as(1, pm);
    EXPECT_FALSE(as.mapped(100));
    Frame f = as.mapNew(100);
    EXPECT_TRUE(as.mapped(100));
    EXPECT_EQ(as.frameOf(100), f);
    EXPECT_EQ(as.residentPages(), 1u);
}

TEST(AddrSpace, SharedMapping)
{
    PhysMem pm;
    AddrSpace a(1, pm), b(2, pm);
    Frame f = a.mapNew(7);
    b.mapShared(7, f);
    EXPECT_EQ(b.frameOf(7), f);
}

TEST(AddrSpace, UnmapFreesWhenAsked)
{
    PhysMem pm;
    AddrSpace as(1, pm);
    as.mapNew(5);
    const auto allocated = pm.allocated();
    as.unmap(5, true);
    EXPECT_FALSE(as.mapped(5));
    EXPECT_EQ(pm.allocated(), allocated - 1);
}

TEST(AddrSpace, PtePhysAddrStable)
{
    PhysMem pm;
    AddrSpace as(1, pm);
    const Addr p1 = as.ptePhysAddr(100);
    const Addr p2 = as.ptePhysAddr(100);
    EXPECT_EQ(p1, p2);
    // Adjacent VPNs share a page-table page, 8 bytes apart.
    EXPECT_EQ(as.ptePhysAddr(101), p1 + 8);
    // A distant VPN lives in a different PT page.
    const Addr far = as.ptePhysAddr(100 + ptesPerPage);
    EXPECT_NE(pageOf(far), pageOf(p1));
}

TEST(AddrSpace, AsnAssignment)
{
    PhysMem pm;
    AddrSpace as(1, pm);
    EXPECT_EQ(as.asn(), -1);
    as.setAsn(7);
    EXPECT_EQ(as.asn(), 7);
}

TEST(Tlb, MissThenInsertThenHit)
{
    Tlb t("T", 8);
    EXPECT_LT(t.lookup(100, 1, user(1)), 0);
    t.insert(100, 1, 55, user(1));
    EXPECT_EQ(t.lookup(100, 1, user(1)), 55);
    EXPECT_EQ(t.stats().accesses[0], 2u);
    EXPECT_EQ(t.stats().misses[0], 1u);
}

TEST(Tlb, AsnMismatchMisses)
{
    Tlb t("T", 8);
    t.insert(100, 1, 55, user(1));
    EXPECT_LT(t.lookup(100, 2, user(1)), 0);
}

TEST(Tlb, GlobalEntryMatchesAnyAsn)
{
    Tlb t("T", 8);
    t.insert(100, 0, 55, user(1), true);
    EXPECT_EQ(t.lookup(100, 3, user(2)), 55);
    EXPECT_EQ(t.lookup(100, 9, user(3)), 55);
}

TEST(Tlb, DuplicateInsertIgnored)
{
    Tlb t("T", 2);
    t.insert(100, 1, 55, user(1));
    t.insert(100, 1, 77, user(2)); // already present: no-op
    EXPECT_EQ(t.lookup(100, 1, user(1)), 55);
    EXPECT_EQ(t.validEntries(), 1);
}

TEST(Tlb, RoundRobinEviction)
{
    Tlb t("T", 2);
    t.insert(1, 1, 10, user(1));
    t.insert(2, 1, 20, user(1));
    t.insert(3, 1, 30, user(1)); // evicts vpn 1
    EXPECT_LT(t.lookup(1, 1, user(1)), 0);
    EXPECT_EQ(t.lookup(2, 1, user(1)), 20);
    EXPECT_EQ(t.lookup(3, 1, user(1)), 30);
}

TEST(Tlb, EvictionClassifiedOnRemiss)
{
    Tlb t("T", 2);
    t.lookup(1, 1, user(1)); // compulsory
    t.insert(1, 1, 10, user(1));
    t.insert(2, 1, 20, user(2));
    t.insert(3, 1, 30, user(2)); // thread 2 evicts thread 1's vpn 1
    t.lookup(1, 1, user(1));     // interthread conflict
    EXPECT_EQ(t.stats().cause[0][static_cast<int>(
                  MissCause::Interthread)],
              1u);
}

TEST(Tlb, FlushAsnOnlyRemovesThatAsn)
{
    Tlb t("T", 8);
    t.insert(1, 1, 10, user(1));
    t.insert(2, 2, 20, user(2));
    t.insert(3, 0, 30, user(3), true); // global
    t.flushAsn(1);
    EXPECT_LT(t.lookup(1, 1, user(1)), 0);
    EXPECT_EQ(t.lookup(2, 2, user(2)), 20);
    EXPECT_EQ(t.lookup(3, 5, user(3)), 30); // global survives
}

TEST(Tlb, FlushAllClassifiedAsInvalidation)
{
    Tlb t("T", 8);
    t.insert(1, 1, 10, user(1));
    t.flushAll();
    EXPECT_EQ(t.validEntries(), 0);
    t.lookup(1, 1, user(1));
    EXPECT_EQ(t.stats().cause[0][static_cast<int>(
                  MissCause::OsInvalidation)],
              1u);
}

TEST(Tlb, FlushPageRemovesOneTranslation)
{
    Tlb t("T", 8);
    t.insert(1, 1, 10, user(1));
    t.insert(2, 1, 20, user(1));
    t.flushPage(1, 1);
    EXPECT_LT(t.lookup(1, 1, user(1)), 0);
    EXPECT_EQ(t.lookup(2, 1, user(1)), 20);
}

// The SPECInt images all sit at userTextBase, so their address spaces
// map the same VPNs; the lookup hint must give each (vpn, asn) its own
// slot rather than one slot per VPN.
TEST(Tlb, HintSlotsSeparateAddressSpaces)
{
    std::set<std::size_t> slots;
    const Addr base = pageOf(userTextBase);
    for (Addr vpn = base; vpn < base + 96; ++vpn)
        for (Asn asn = 1; asn <= 8; ++asn)
            slots.insert(Tlb::hintSlot(vpn, asn));
    EXPECT_GE(slots.size(), 700u);
}

// One VPN under eight ASNs, looked up round-robin as SMT fetch
// interleaves address spaces: every lookup finds its own entry
// whatever its hint slot last pointed at, including after flushes
// leave hints pointing at dead entries.
TEST(Tlb, SameVpnAcrossAsnsInterleaved)
{
    Tlb t("T", 16);
    const Addr vpn = pageOf(userTextBase);
    const Addr globalVpn = vpn + 1;
    for (Asn asn = 1; asn <= 8; ++asn) // entry index asn - 1
        t.insert(vpn, asn, 100 + asn, user(asn));
    t.insert(globalVpn, 0, 99, user(0), true);

    std::uint64_t lookups = 0;
    for (int i = 0; i < 1000; ++i, ++lookups) {
        const Asn asn = 1 + i % 8;
        if (i % 3 == 0)
            ASSERT_EQ(t.lookup(globalVpn, asn, user(asn)), 99);
        else
            ASSERT_EQ(t.lookup(vpn, asn, user(asn)), 100 + asn);
    }
    EXPECT_EQ(t.stats().totalAccesses(), lookups);
    EXPECT_EQ(t.stats().totalMisses(), 0u);

    auto missing = [&] {
        std::set<Asn> out;
        for (int round = 0; round < 3; ++round)
            for (Asn asn = 1; asn <= 8; ++asn) {
                const std::int64_t f = t.lookup(vpn, asn, user(asn));
                if (f < 0)
                    out.insert(asn);
                else
                    EXPECT_EQ(f, 100 + asn);
                EXPECT_EQ(t.lookup(globalVpn, asn, user(asn)), 99);
            }
        return out;
    };
    t.flushAsn(3);
    EXPECT_EQ(missing(), std::set<Asn>({3}));
    EXPECT_EQ(t.invalidateIndex(4), 4u); // ASN 5's entry
    EXPECT_EQ(missing(), std::set<Asn>({3, 5}));
}

TEST(Tlb, KernelClassCounted)
{
    Tlb t("T", 8);
    AccessInfo k{1, Mode::Kernel, 0};
    t.lookup(9, 1, k);
    EXPECT_EQ(t.stats().accesses[1], 1u);
    EXPECT_EQ(t.stats().misses[1], 1u);
}

TEST(Tlb, MissRatePct)
{
    Tlb t("T", 8);
    t.lookup(1, 1, user(1));
    t.insert(1, 1, 10, user(1));
    t.lookup(1, 1, user(1));
    EXPECT_DOUBLE_EQ(t.stats().missRatePct(), 50.0);
}

// Parameterized: capacity behavior across TLB sizes.
class TlbCapacity : public testing::TestWithParam<int>
{
};

TEST_P(TlbCapacity, WorkingSetWithinCapacityNeverRemisses)
{
    const int entries = GetParam();
    Tlb t("T", entries);
    for (int vpn = 0; vpn < entries; ++vpn) {
        t.lookup(vpn, 1, user(1));
        t.insert(vpn, 1, 100 + vpn, user(1));
    }
    const auto misses = t.stats().totalMisses();
    for (int pass = 0; pass < 3; ++pass)
        for (int vpn = 0; vpn < entries; ++vpn)
            EXPECT_GE(t.lookup(vpn, 1, user(1)), 0);
    EXPECT_EQ(t.stats().totalMisses(), misses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbCapacity,
                         testing::Values(4, 16, 64, 128));

TEST(Tlb, ConstructiveSharingTracked)
{
    Tlb t("T", 8);
    AccessInfo filler{1, Mode::Pal, 0};
    t.insert(5, 0, 50, filler, true); // global entry, kernel filler
    AccessInfo u2{2, Mode::User, 1};
    EXPECT_GE(t.lookup(5, 3, u2), 0);
    EXPECT_EQ(t.stats().avoided[0][1], 1u); // user saved by kernel
    // Second use by the same thread does not double count.
    t.lookup(5, 3, u2);
    EXPECT_EQ(t.stats().avoided[0][1], 1u);
}

TEST(Tlb, FillerDoesNotCountAsSharing)
{
    Tlb t("T", 8);
    AccessInfo who{4, Mode::User, 0};
    t.insert(9, 1, 90, who);
    t.lookup(9, 1, who);
    EXPECT_EQ(t.stats().avoided[0][0], 0u);
    EXPECT_EQ(t.stats().avoided[0][1], 0u);
}
