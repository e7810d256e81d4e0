/**
 * @file
 * Fixed-capacity ring buffer for hot-path pipeline structures.
 *
 * A power-of-two-sized circular buffer with monotonically increasing
 * absolute positions: push_back() assigns position tailPos(), and a
 * slot keeps its absolute position for as long as the element lives in
 * the ring. Front pops (commit) advance headPos() forever; back pops
 * (squash) rewind tailPos(), so a position can be reused — consumers
 * that cache positions must re-validate the occupant (the pipeline
 * stores the producer's sequence number alongside its position).
 *
 * All operations are O(1) and allocation-free after init(). Unlike
 * std::deque there is no per-block allocation on push and no pointer
 * chasing on operator[] — indexing is a mask and an add.
 */

#ifndef SMTOS_COMMON_RING_H
#define SMTOS_COMMON_RING_H

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace smtos {

template <typename T>
class FixedRing
{
  public:
    FixedRing() = default;

    /** Size the ring for at least @p capacity live elements. */
    void
    init(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_.assign(cap, T{});
        mask_ = cap - 1;
        head_ = tail_ = 0;
    }

    bool empty() const { return head_ == tail_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }
    std::size_t capacity() const { return buf_.size(); }

    /** Absolute position of the front element (next to commit). */
    std::uint64_t headPos() const { return head_; }
    /** Absolute position the next push_back() will occupy. */
    std::uint64_t tailPos() const { return tail_; }

    /** True when @p pos currently holds a live element. */
    bool livePos(std::uint64_t pos) const
    {
        return pos >= head_ && pos < tail_;
    }

    T &
    push_back(const T &v)
    {
        smtos_assert(size() < buf_.size());
        T &slot = buf_[tail_ & mask_];
        slot = v;
        ++tail_;
        return slot;
    }

    void
    pop_front()
    {
        smtos_assert(!empty());
        ++head_;
    }

    void
    pop_back()
    {
        smtos_assert(!empty());
        --tail_;
    }

    T &front() { return buf_[head_ & mask_]; }
    const T &front() const { return buf_[head_ & mask_]; }
    T &back() { return buf_[(tail_ - 1) & mask_]; }
    const T &back() const { return buf_[(tail_ - 1) & mask_]; }

    /** Index relative to the front (0 = oldest live element). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    /** Backing-slot index of @p pos, for side arrays of capacity()
     *  entries that run parallel to the ring. */
    std::size_t slotOf(std::uint64_t pos) const
    {
        return static_cast<std::size_t>(pos & mask_);
    }

    /** Access by absolute position (caller checked livePos()). */
    T &atPos(std::uint64_t pos) { return buf_[pos & mask_]; }
    const T &atPos(std::uint64_t pos) const
    {
        return buf_[pos & mask_];
    }

    void clear() { head_ = tail_ = 0; }

    /**
     * Restore the absolute position span after init() (snapshot
     * restore). Positions must round-trip exactly: cached producer
     * positions and livePos() checks reference the absolute values.
     * Slots in [head, tail) are left value-initialized for the caller
     * to fill via atPos().
     */
    void
    restoreSpan(std::uint64_t head, std::uint64_t tail)
    {
        smtos_assert(tail - head <= buf_.size());
        head_ = head;
        tail_ = tail;
    }

  private:
    std::vector<T> buf_;
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

} // namespace smtos

#endif // SMTOS_COMMON_RING_H
