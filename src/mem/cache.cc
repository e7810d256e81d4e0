#include "mem/cache.h"

#include <memory>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/probes.h"

namespace smtos {

namespace {

std::uint64_t
threadBit(ThreadId t)
{
    return 1ull << (static_cast<std::uint64_t>(t) & 63);
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    SMTOS_CHECK(params_.assoc >= 1);
    SMTOS_CHECK(params_.lineBytes > 0);
    const std::uint64_t num_lines = params_.sizeBytes / params_.lineBytes;
    SMTOS_CHECK(num_lines % params_.assoc == 0);
    numSets_ = static_cast<int>(num_lines / params_.assoc);
    SMTOS_CHECK(numSets_ >= 1);
    // Power-of-two geometry, checked in every build: blockOf and setOf
    // are a shift and a mask.
    auto pow2 = [](std::uint64_t v) { return (v & (v - 1)) == 0; };
    smtos_assert(pow2(static_cast<std::uint64_t>(params_.lineBytes)) &&
                 pow2(static_cast<std::uint64_t>(numSets_)));
    while ((1 << lineShift_) < params_.lineBytes)
        ++lineShift_;
    setMask_ = static_cast<Addr>(numSets_) - 1;
    constexpr std::size_t hostLine = 64;
    std::size_t room = num_lines * sizeof(Line) + hostLine;
    wayBytes_ = std::make_unique_for_overwrite<std::byte[]>(room);
    void *first = wayBytes_.get();
    std::align(hostLine, num_lines * sizeof(Line), first, room);
    lines_ = {static_cast<Line *>(first), num_lines};
    std::uninitialized_fill(lines_.begin(), lines_.end(), Line{});
}

CacheOutcome
Cache::access(Addr addr, const AccessInfo &who, bool is_write)
{
    CacheOutcome out;
    const Addr block = blockOf(addr);
    Line *base = &lines_[setBase(block)];
    ++tick_;

    const int cls = who.isKernel() ? 1 : 0;
    ++stats_.accesses[cls];

    for (int w = 0; w < params_.assoc; ++w) {
        Line &ln = base[w];
        if (ln.valid && ln.blockAddr == block) {
            // Hit. Detect constructive sharing: first touch by this
            // thread on a block another thread filled.
            if (ln.fillerThread != who.thread &&
                !(ln.touchedMask & threadBit(who.thread))) {
                out.sharedAvoidance = true;
                out.fillerKernel = ln.fillerKernel;
                stats_.avoided[cls][ln.fillerKernel ? 1 : 0]++;
            }
            ln.touchedMask |= threadBit(who.thread);
            ln.lruStamp = tick_;
            ln.dirty = ln.dirty || is_write;
            out.hit = true;
            return out;
        }
    }

    // Miss: pick the victim (first invalid way, else true LRU).
    Line *victim = &base[0];
    for (int w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }

    // Classify, then fill over the victim.
    ++stats_.misses[cls];
    out.cause = classifier_.classify(block, who);
    stats_.cause[cls][static_cast<int>(out.cause)]++;
    if (probes_)
        probes_->cacheMiss(params_.name.c_str(), who.thread, addr);

    SMTOS_CHECK(victim != nullptr);
    if (victim->valid) {
        classifier_.recordEviction(victim->blockAddr, who);
        out.dirtyEviction = victim->dirty;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->blockAddr = block;
    victim->lruStamp = tick_;
    victim->fillerThread = who.thread;
    victim->fillerKernel = who.isKernel();
    victim->touchedMask = threadBit(who.thread);
    return out;
}

bool
Cache::probe(Addr addr) const
{
    const Addr block = blockOf(addr);
    const Line *base = &lines_[setBase(block)];
    for (int w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].blockAddr == block)
            return true;
    return false;
}

void
Cache::invalidateAll()
{
    for (Line &ln : lines_) {
        if (ln.valid) {
            classifier_.recordInvalidation(ln.blockAddr);
            ln.valid = false;
            ln.dirty = false;
        }
    }
}

void
Cache::invalidateBlock(Addr addr)
{
    const Addr block = blockOf(addr);
    Line *base = &lines_[setBase(block)];
    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].blockAddr == block) {
            classifier_.recordInvalidation(block);
            base[w].valid = false;
            base[w].dirty = false;
        }
    }
}

bool
Cache::snoopInvalidate(Addr addr)
{
    const Addr block = blockOf(addr);
    Line *base = &lines_[setBase(block)];
    bool was_dirty = false;
    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].blockAddr == block) {
            was_dirty = was_dirty || base[w].dirty;
            classifier_.recordInvalidation(block);
            base[w].valid = false;
            base[w].dirty = false;
        }
    }
    return was_dirty;
}

bool
Cache::snoopDowngrade(Addr addr)
{
    const Addr block = blockOf(addr);
    Line *base = &lines_[setBase(block)];
    bool was_dirty = false;
    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].blockAddr == block &&
            base[w].dirty) {
            base[w].dirty = false;
            was_dirty = true;
        }
    }
    return was_dirty;
}

bool
Cache::probeDirty(Addr addr) const
{
    const Addr block = blockOf(addr);
    const Line *base = &lines_[setBase(block)];
    for (int w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].blockAddr == block &&
            base[w].dirty)
            return true;
    return false;
}

std::uint64_t
Cache::invalidateIndex(std::uint64_t idx)
{
    idx %= lines_.size();
    Line &ln = lines_[idx];
    if (ln.valid) {
        classifier_.recordInvalidation(ln.blockAddr);
        ln.valid = false;
        ln.dirty = false;
    }
    return idx;
}

double
Cache::missRatePct() const
{
    return pct(static_cast<double>(stats_.totalMisses()),
               static_cast<double>(stats_.totalAccesses()));
}

double
Cache::missRatePct(bool kernel) const
{
    const int cls = kernel ? 1 : 0;
    return pct(static_cast<double>(stats_.misses[cls]),
               static_cast<double>(stats_.accesses[cls]));
}

} // namespace smtos
