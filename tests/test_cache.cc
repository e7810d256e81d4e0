/**
 * @file
 * Cache model tests: hits/misses, LRU, miss-cause classification
 * (Tables 3/7 machinery), constructive sharing (Table 8 machinery),
 * and parameterized geometry sweeps.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mem/cache.h"
#include "snap/snapshot.h"

using namespace smtos;

namespace {

AccessInfo
user(ThreadId t)
{
    return AccessInfo{t, Mode::User, 0};
}

AccessInfo
kern(ThreadId t)
{
    return AccessInfo{t, Mode::Kernel, 0};
}

CacheParams
tiny()
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 1024; // 16 lines
    p.assoc = 2;        // 8 sets
    p.lineBytes = 64;
    return p;
}

/** @p c's snapshot blob, in one section. */
std::vector<std::uint8_t>
image(Cache &c)
{
    Snapshotter s;
    s.beginSection("HIER", Cache::snapVersion);
    c.snap(s);
    s.endSection();
    return s.finish();
}

/** Load @p bytes, written by image(), into @p c. */
void
restore(Cache &c, const std::vector<std::uint8_t> &bytes)
{
    Restorer r(bytes);
    ASSERT_TRUE(r.ok()) << r.error();
    r.beginSection("HIER", Cache::snapVersion);
    c.snap(r);
    r.endSection();
}

} // namespace

TEST(Cache, FirstAccessIsCompulsoryMiss)
{
    Cache c(tiny());
    auto out = c.access(0x1000, user(1), false);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.cause, MissCause::Compulsory);
}

TEST(Cache, SecondAccessHits)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false);
    EXPECT_TRUE(c.access(0x1000, user(1), false).hit);
    EXPECT_TRUE(c.access(0x1038, user(1), false).hit); // same line
}

TEST(Cache, DifferentLineMisses)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false);
    EXPECT_FALSE(c.access(0x1040, user(1), false).hit);
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(tiny()); // 8 sets: addresses 512B apart map to same set
    const Addr a = 0x0000, b = a + 8 * 64;
    c.access(a, user(1), false);
    c.access(b, user(1), false);
    EXPECT_TRUE(c.access(a, user(1), false).hit);
    EXPECT_TRUE(c.access(b, user(1), false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64; // same set, 3 lines
    c.access(a, user(1), false);
    c.access(b, user(1), false);
    c.access(d, user(1), false); // evicts a
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, IntrathreadConflictClassified)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, user(1), false);
    c.access(b, user(1), false);
    c.access(d, user(1), false); // thread 1 evicts its own a
    auto out = c.access(a, user(1), false);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.cause, MissCause::Intrathread);
}

TEST(Cache, InterthreadConflictClassified)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, user(1), false);
    c.access(b, user(2), false);
    c.access(d, user(2), false); // thread 2 evicts thread 1's a
    auto out = c.access(a, user(1), false);
    EXPECT_EQ(out.cause, MissCause::Interthread);
}

TEST(Cache, UserKernelConflictClassified)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, user(1), false);
    c.access(b, kern(2), false);
    c.access(d, kern(2), false); // kernel evicts user line
    auto out = c.access(a, user(1), false);
    EXPECT_EQ(out.cause, MissCause::UserKernel);
}

TEST(Cache, PalCountsAsKernelForClassification)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    AccessInfo pal{3, Mode::Pal, 0};
    c.access(a, pal, false);
    c.access(b, pal, false);
    c.access(d, pal, false); // pal evicts its own: same class
    auto out = c.access(a, pal, false);
    EXPECT_EQ(out.cause, MissCause::Intrathread);
    EXPECT_EQ(c.stats().misses[1], 4u); // counted as kernel class
}

TEST(Cache, OsInvalidationClassified)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false);
    c.invalidateAll();
    auto out = c.access(0x1000, user(1), false);
    EXPECT_EQ(out.cause, MissCause::OsInvalidation);
}

TEST(Cache, InvalidateBlockOnlyKillsThatBlock)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false);
    c.access(0x2000, user(1), false);
    c.invalidateBlock(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_TRUE(c.probe(0x2000));
}

// An invalidated way keeps its stale blockAddr; only the valid bit keeps
// it from matching. Every invalidation path must leave the block
// missing, classified as an OS invalidation — also in a fresh cache
// restored from a snapshot, whose re-snapshot is byte-identical.
TEST(Cache, InvalidatedWaysNeverMatchTheirStaleTag)
{
    constexpr Addr x = 0x1000;
    const std::pair<const char *, std::function<void(Cache &)>> paths[] = {
        {"invalidateBlock", [](Cache &c) { c.invalidateBlock(x); }},
        {"snoopInvalidate", [](Cache &c) { c.snoopInvalidate(x); }},
        {"invalidateIndex",
         [](Cache &c) {
             // X filled the first (invalid) way of its set.
             const Addr set =
                 c.blockOf(x) % static_cast<Addr>(c.numSets());
             c.invalidateIndex(set *
                               static_cast<Addr>(c.params().assoc));
         }},
        {"invalidateAll", [](Cache &c) { c.invalidateAll(); }},
    };
    auto expectXMisses = [&](Cache &c) {
        EXPECT_FALSE(c.probe(x));
        EXPECT_FALSE(c.probeDirty(x));
        const CacheOutcome out = c.access(x, user(2), false);
        EXPECT_FALSE(out.hit);
        EXPECT_EQ(out.cause, MissCause::OsInvalidation);
    };
    for (const auto &[name, invalidate] : paths) {
        SCOPED_TRACE(name);
        Cache a(tiny());
        a.access(x, user(1), true);
        a.access(x + 0x2000, user(1), false); // same set, other way
        invalidate(a);

        const std::vector<std::uint8_t> bytes = image(a);
        Cache b(tiny());
        restore(b, bytes);
        EXPECT_EQ(image(b), bytes);

        expectXMisses(a);
        expectXMisses(b);
    }
}

// A snapshot writes a valid-way bitmap and the records of the valid
// ways only; a fresh cache restored from it answers every probe and
// every next access as the original does.
TEST(Cache, SnapshotHoldsOnlyValidWays)
{
    CacheParams p = tiny();
    p.sizeBytes = 8 * 1024; // 128 ways, 64 sets: a two-word bitmap
    const Addr setStride = 64 * 64;
    const Addr dirty = 0x0000, shared = 0x0040, gone = 0x0080,
               snooped = 0x00c0, sameSet = dirty + setStride,
               highWord = 0x0800; // set 32: ways 64-65, bitmap word 1
    Cache a(p);
    a.access(dirty, user(1), true);
    a.access(shared, kern(2), false);
    a.access(shared, user(3), false); // touched by a second thread
    a.access(gone, user(1), false);
    a.access(snooped, user(1), true);
    a.access(sameSet, user(4), false);
    a.access(highWord, kern(5), true);
    a.invalidateBlock(gone);
    a.snoopInvalidate(snooped);

    // Bitmap and valid records, around what does not depend on the
    // ways: version tag, bitmap length, tick, classifier and counters.
    MissClassifier invalidated;
    invalidated.recordInvalidation(a.blockOf(gone));
    invalidated.recordInvalidation(a.blockOf(snooped));
    Snapshotter cs;
    invalidated.snap(cs);
    const std::size_t classifierBytes =
        cs.finish().size() - snapshotHeaderBytes;
    const std::size_t fixed = sizeof(std::uint32_t) +
                              sizeof(std::uint64_t) +
                              sizeof(std::uint64_t) + classifierBytes +
                              sizeof(InterferenceStats);
    // dirty, blockAddr, lruStamp, fillerThread, fillerKernel, touchedMask
    const std::size_t record = 1 + 8 + 8 + sizeof(ThreadId) + 1 + 8;
    const std::size_t ways = 128, valid = 4;
    const std::size_t section = 16; // fourcc, version, length
    const std::vector<std::uint8_t> bytes = image(a);
    EXPECT_EQ(bytes.size() - snapshotHeaderBytes - section,
              fixed + ways / 8 + valid * record);

    Cache b(p);
    restore(b, bytes);
    EXPECT_EQ(image(b), bytes);
    for (Addr x : {dirty, shared, gone, snooped, sameSet, highWord,
                   Addr{0x0100}}) {
        SCOPED_TRACE(x);
        EXPECT_EQ(a.probe(x), b.probe(x));
        EXPECT_EQ(a.probeDirty(x), b.probeDirty(x));
    }

    // Next accesses: a shared-avoidance hit, a dirty LRU victim, a
    // refill over an invalidated way, a hit on the high bitmap word.
    const std::pair<Addr, AccessInfo> next[] = {
        {shared, user(6)},
        {dirty + 2 * setStride, user(1)},
        {gone + setStride, kern(2)},
        {gone, user(1)},
        {highWord, user(5)},
    };
    std::vector<CacheOutcome> got;
    for (const auto &[x, who] : next) {
        SCOPED_TRACE(x);
        const CacheOutcome oa = a.access(x, who, false);
        const CacheOutcome ob = b.access(x, who, false);
        EXPECT_EQ(oa.hit, ob.hit);
        EXPECT_EQ(oa.cause, ob.cause);
        EXPECT_EQ(oa.sharedAvoidance, ob.sharedAvoidance);
        EXPECT_EQ(oa.fillerKernel, ob.fillerKernel);
        EXPECT_EQ(oa.dirtyEviction, ob.dirtyEviction);
        got.push_back(ob);
    }
    EXPECT_TRUE(got[0].hit && got[0].sharedAvoidance && got[0].fillerKernel);
    EXPECT_TRUE(got[1].dirtyEviction);
    EXPECT_FALSE(b.probe(dirty)); // the LRU way of its set
    EXPECT_TRUE(b.probe(sameSet));
    EXPECT_EQ(got[3].cause, MissCause::OsInvalidation);
    EXPECT_TRUE(got[4].hit);
    EXPECT_EQ(image(a), image(b));
}

// A bitmap bit past the last way names no way: the load asserts
// before it touches a line.
TEST(CacheDeathTest, BitmapBitPastTheWaysAsserts)
{
    Snapshotter s; // tiny(): 16 ways, one bitmap word
    s.beginSection("HIER", Cache::snapVersion);
    s.io(Cache::snapVersion);
    s.io(std::uint64_t{1});       // bitmap words
    s.io(std::uint64_t{1} << 16); // way 16
    s.endSection();
    const std::vector<std::uint8_t> bytes = s.finish();
    Cache c(tiny());
    Restorer r(bytes);
    ASSERT_TRUE(r.ok()) << r.error();
    r.beginSection("HIER", Cache::snapVersion);
    EXPECT_EXIT(c.snap(r), ::testing::KilledBySignal(SIGABRT),
                "assertion failed");
}

TEST(Cache, ConstructiveSharingDetected)
{
    Cache c(tiny());
    c.access(0x1000, kern(1), false);
    auto out = c.access(0x1000, kern(2), false); // prefetched by 1
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.sharedAvoidance);
    EXPECT_TRUE(out.fillerKernel);
    EXPECT_EQ(c.stats().avoided[1][1], 1u);
}

TEST(Cache, SharingCountedOncePerThread)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false);
    c.access(0x1000, user(2), false); // counts
    auto out = c.access(0x1000, user(2), false); // already touched
    EXPECT_FALSE(out.sharedAvoidance);
    EXPECT_EQ(c.stats().avoided[0][0], 1u);
}

TEST(Cache, UserKernelSharingMatrix)
{
    Cache c(tiny());
    c.access(0x1000, kern(1), false);
    c.access(0x1000, user(2), false); // user saved by kernel fill
    EXPECT_EQ(c.stats().avoided[0][1], 1u);
    c.access(0x2000, user(3), false);
    c.access(0x2000, kern(4), false); // kernel saved by user fill
    EXPECT_EQ(c.stats().avoided[1][0], 1u);
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, user(1), true); // dirty
    c.access(b, user(1), false);
    auto out = c.access(d, user(1), false); // evicts dirty a
    EXPECT_TRUE(out.dirtyEviction);
}

TEST(Cache, CleanEvictionNotDirty)
{
    Cache c(tiny());
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, user(1), false);
    c.access(b, user(1), false);
    auto out = c.access(d, user(1), false);
    EXPECT_FALSE(out.dirtyEviction);
}

TEST(Cache, MissRatesByClass)
{
    Cache c(tiny());
    c.access(0x1000, user(1), false); // user miss
    c.access(0x1000, user(1), false); // user hit
    c.access(0x2000, kern(2), false); // kernel miss
    EXPECT_DOUBLE_EQ(c.missRatePct(false), 50.0);
    EXPECT_DOUBLE_EQ(c.missRatePct(true), 100.0);
    EXPECT_NEAR(c.missRatePct(), 100.0 * 2 / 3, 1e-9);
}

TEST(Cache, StatsCausesSumToMisses)
{
    Cache c(tiny());
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        AccessInfo who = (i % 3 == 0) ? kern(i % 5) : user(i % 7);
        c.access(rng.below(64 * 1024) & ~7ull, who, rng.chance(0.3));
    }
    const InterferenceStats &s = c.stats();
    for (int cls = 0; cls < 2; ++cls) {
        std::uint64_t sum = 0;
        for (int k = 0; k < numMissCauses; ++k)
            sum += s.cause[cls][k];
        EXPECT_EQ(sum, s.misses[cls]);
    }
}

TEST(Cache, DirectMappedConflicts)
{
    CacheParams p = tiny();
    p.assoc = 1;
    Cache c(p); // 16 sets direct mapped
    const Addr a = 0, b = 16 * 64;
    c.access(a, user(1), false);
    c.access(b, user(1), false); // evicts a immediately
    EXPECT_FALSE(c.probe(a));
}

TEST(MissClassifier, TracksDistinctBlocks)
{
    MissClassifier mc;
    mc.recordEviction(1, AccessInfo{1, Mode::User, 0});
    mc.recordEviction(2, AccessInfo{2, Mode::Kernel, 0});
    EXPECT_EQ(mc.trackedBlocks(), 2u);
    EXPECT_EQ(mc.classify(3, AccessInfo{1, Mode::User, 0}),
              MissCause::Compulsory);
}

TEST(MissClassifier, InvalidationSticky)
{
    MissClassifier mc;
    mc.recordEviction(1, AccessInfo{1, Mode::User, 0});
    mc.recordInvalidation(1);
    EXPECT_EQ(mc.classify(1, AccessInfo{1, Mode::User, 0}),
              MissCause::OsInvalidation);
}

TEST(MissCauseNames, AllDistinct)
{
    EXPECT_STREQ(missCauseName(MissCause::Compulsory), "compulsory");
    EXPECT_STREQ(missCauseName(MissCause::Intrathread), "intrathread");
    EXPECT_STREQ(missCauseName(MissCause::Interthread), "interthread");
    EXPECT_STREQ(missCauseName(MissCause::UserKernel), "user-kernel");
    EXPECT_STREQ(missCauseName(MissCause::OsInvalidation),
                 "os-invalidation");
}

// --- parameterized geometry sweep -----------------------------------

struct GeoParam
{
    std::uint64_t size;
    int assoc;
};

class CacheGeometry : public testing::TestWithParam<GeoParam>
{
};

TEST_P(CacheGeometry, SequentialWorkingSetFitsOrThrashes)
{
    CacheParams p;
    p.sizeBytes = GetParam().size;
    p.assoc = GetParam().assoc;
    p.lineBytes = 64;
    Cache c(p);
    // Walk a working set equal to half the cache twice: the second
    // pass must hit every line.
    const int lines = static_cast<int>(p.sizeBytes / 64 / 2);
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < lines; ++i)
            c.access(static_cast<Addr>(i) * 64, user(1), false);
    EXPECT_EQ(c.stats().totalMisses(),
              static_cast<std::uint64_t>(lines));
}

TEST_P(CacheGeometry, OversizedWorkingSetAlwaysMisses)
{
    CacheParams p;
    p.sizeBytes = GetParam().size;
    p.assoc = GetParam().assoc;
    p.lineBytes = 64;
    Cache c(p);
    // A strided set 4x the cache size revisited in order defeats LRU.
    const int lines = static_cast<int>(p.sizeBytes / 64 * 4);
    for (int pass = 0; pass < 3; ++pass)
        for (int i = 0; i < lines; ++i)
            c.access(static_cast<Addr>(i) * 64, user(1), false);
    EXPECT_EQ(c.stats().totalMisses(),
              static_cast<std::uint64_t>(3 * lines));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Values(GeoParam{1024, 1}, GeoParam{1024, 2},
                    GeoParam{4096, 2}, GeoParam{4096, 4},
                    GeoParam{16384, 1}, GeoParam{16384, 4}));
