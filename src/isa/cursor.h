/**
 * @file
 * The execution cursor: functional state of one software thread.
 *
 * A cursor walks a program image's control-flow graph, producing the
 * instruction stream the pipeline fetches. It is trivially copyable so
 * the fetch engine can checkpoint it at every predictable-miss point
 * (branches, TLB-using memory ops) and restore it on a squash; a
 * cursor in wrong-path mode keeps producing real instructions from the
 * mispredicted direction, which is how wrong-path cache and BTB
 * pollution arises, exactly as in the paper's simulator.
 */

#ifndef SMTOS_ISA_CURSOR_H
#define SMTOS_ISA_CURSOR_H

#include <cstdint>
#include <type_traits>

#include "common/rng.h"
#include "common/types.h"
#include "isa/program.h"

namespace smtos {

/** A virtual memory region used by address generation. */
struct MemRegion
{
    Addr base = 0;
    Addr bytes = 0;
    /**
     * Fixed hot window at the region base shared by every thread
     * (kernel data structures: proc/socket/vm tables) instead of a
     * per-thread drifting window (private user working sets).
     */
    bool sharedHot = false;
};

/** Maximum regions per thread. */
constexpr int maxRegions = 8;

/**
 * Per-thread "internal processor registers": the bridge between the
 * kernel model and magic address/trip generation in kernel code
 * (pending-fault PTE address, allocated frame, copy buffers, dynamic
 * loop trip counts).
 */
struct ThreadIprs
{
    Addr copySrc = 0;
    Addr copyDst = 0;
    std::uint32_t copyTrip = 0;
    std::uint32_t serviceTrip = 0;
    std::uint32_t intrTrip = 0;  ///< interrupt batch size (separate so
                                 ///< interrupts don't clobber a loop
                                 ///< in progress on the same thread)
    bool copySrcPhysical = false;
    bool copyDstPhysical = false;
};

/** Which image a frame executes from. */
struct ImageSet
{
    const CodeImage *user = nullptr;
    const CodeImage *kernel = nullptr;
};

/**
 * A pending TLB fault. Fault records live on a small stack inside the
 * cursor (not in the thread IPRs) because faults nest — a kernel
 * access inside a fault handler can itself fault — and because
 * speculatively entered handlers must unwind their record when the
 * speculation squashes; checkpoint/restore of the cursor gives both
 * for free.
 */
struct FaultRec
{
    Addr vpn = 0;
    std::uint64_t frame = 0;
    Addr pteAddr = 0;      ///< physical address of the PTE
    std::uint8_t itlb = 0;
    std::uint8_t global = 0;
    std::uint8_t isText = 0;
    std::uint8_t pad[5] = {}; ///< explicit padding, zeroed (see Cursor)
};

/** Maximum nested faults. */
constexpr int maxFaultDepth = 6;

/** One call frame of the cursor. */
struct CallFrame
{
    std::int32_t func = 0;
    std::int32_t block = 0;
    std::uint16_t instrIdx = 0;
    std::uint8_t inKernel = 0;
    std::uint8_t pad = 0;
    std::uint16_t loop[4] = {0, 0, 0, 0};
};

/** Maximum call depth (generator keeps real programs well below). */
constexpr int maxFrames = 24;

/** Resolved control transfer, produced by Cursor::previewBranch(). */
struct BranchPreview
{
    enum class Kind : std::uint8_t
    {
        Cond, Jump, Indirect, Call, Ret, PalRet
    };

    Kind kind = Kind::Cond;
    bool taken = false;
    Addr targetPc = 0;       ///< actual target PC when taken
    std::int32_t targetFunc = -1;
    std::int32_t targetBlock = -1; ///< function-relative
};

/**
 * The functional execution state of one software thread, including the
 * stochastic state that decides branch directions and data addresses.
 * Trivially copyable: checkpoints are plain struct copies.
 */
class Cursor
{
  public:
    Cursor() = default;

    /** Reset to the entry of @p func. */
    void reset(int func, bool in_kernel, std::uint64_t seed);

    bool valid() const { return depth_ > 0; }
    int depth() const { return depth_; }
    bool wrongPath() const { return wrongPath_; }
    void setWrongPath(bool wp) { wrongPath_ = wp; }
    bool stuck() const { return stuck_; }
    void setStuck(bool s) { stuck_ = s; }

    const CallFrame &top() const { return frames_[depth_ - 1]; }

    /** Image of the top frame. */
    const CodeImage &image(const ImageSet &is) const
    {
        return top().inKernel ? *is.kernel : *is.user;
    }

    /** Privilege mode implied by the top frame. Inline: queried for
     *  every fetched and every warmed instruction. */
    Mode
    mode(const ImageSet &is) const
    {
        const CallFrame &f = top();
        if (!f.inKernel)
            return Mode::User;
        return is.kernel->func(f.func).pal ? Mode::Pal : Mode::Kernel;
    }

    /** Current (next-to-fetch) instruction and its PC. */
    const Instr &
    currentInstr(const ImageSet &is) const
    {
        const CallFrame &f = top();
        return image(is).instrAt(f.func, f.block, f.instrIdx);
    }

    Addr
    currentPc(const ImageSet &is) const
    {
        const CallFrame &f = top();
        return image(is).pcOf(f.func, f.block, f.instrIdx);
    }

    /** PC of the frame below the top (return address after a call). */
    Addr parentPc(const ImageSet &is) const;

    /** Advance past a non-control-transfer instruction. Inline: runs
     *  for every sequential instruction at either fidelity. */
    void
    stepSequential(const ImageSet &is)
    {
        CallFrame &f = frames_[depth_ - 1];
        const CodeImage &img = image(is);
        const BasicBlock &bb = img.block(f.func, f.block);
        ++f.instrIdx;
        if (f.instrIdx >= bb.numInstrs) {
            // Fall through to the next block of the function.
            if (f.block + 1 >= img.numBlocks(f.func)) {
                // Ran off the function end: only legal on the wrong
                // path.
                if (wrongPath_) {
                    stuck_ = true;
                    f.instrIdx =
                        static_cast<std::uint16_t>(bb.numInstrs - 1);
                    return;
                }
                smtos_panic("cursor fell off end of %s",
                            img.func(f.func).name.c_str());
            }
            ++f.block;
            f.instrIdx = 0;
        }
    }

    /**
     * Resolve the current control-transfer instruction: direction,
     * target, and loop/rng state mutations. Does not move the cursor.
     */
    BranchPreview previewBranch(const ImageSet &is,
                                const ThreadIprs &iprs);

    /**
     * Move the cursor. @p take_it selects taken vs fall-through for
     * conditional branches (fetch may deliberately follow the wrong
     * direction while speculating); non-conditional kinds always take.
     */
    void followBranch(const ImageSet &is, const BranchPreview &bp,
                      bool take_it);

    /** Push a call frame (used by the kernel model for dispatch). */
    void push(int func, bool in_kernel);

    /** Pop the top frame (kernel model; PalReturn path). */
    void pop();

    /**
     * Generate the data address for the current memory instruction.
     * Mutates stream counters / rng (restored by checkpointing).
     *
     * @param regions the owning thread's region table
     * @param iprs the owning thread's magic registers
     */
    Addr memAddress(const Instr &in, const MemRegion *regions,
                    const ThreadIprs &iprs);

    /** Dynamic instruction count advanced by the pipeline at commit. */
    std::uint64_t retired = 0;

    // --- pending-fault stack ---
    void pushFault(const FaultRec &r);
    FaultRec popFault();
    bool hasFault() const { return faultDepth_ > 0; }
    FaultRec &topFault();

    // --- faulting-access replay ---
    /**
     * Record that the instruction at the current position must replay
     * with @p vaddr (instead of drawing a fresh address) when it is
     * next fetched at this call depth. Set on the checkpoint taken at
     * fetch so a DTLB trap re-executes the exact same access.
     */
    void
    setRetryVaddr(Addr vaddr)
    {
        retryVaddr_ = vaddr;
        retryDepth_ = depth_;
    }

    /** Consume the replay address if armed for this depth. */
    bool
    takeRetryVaddr(Addr &vaddr)
    {
        if (retryDepth_ != depth_)
            return false;
        vaddr = retryVaddr_;
        retryDepth_ = -1;
        return true;
    }

  private:
    CallFrame frames_[maxFrames];
    std::int8_t depth_ = 0;
    bool wrongPath_ = false;
    bool stuck_ = false;
    // Explicit zeroed padding: snapshots copy the cursor as raw
    // bytes, so no byte of it may be indeterminate.
    std::uint8_t pad0_[5] = {};
    Rng rng_{1};
    std::uint32_t stream_[4] = {0, 0, 0, 0};
    FaultRec faults_[maxFaultDepth];
    std::int8_t faultDepth_ = 0;
    std::uint8_t pad1_[7] = {};
    Addr retryVaddr_ = 0;
    std::int8_t retryDepth_ = -1;
    std::uint8_t pad2_[7] = {};
};

static_assert(std::is_trivially_copyable_v<Cursor>,
              "cursor checkpoints must be plain copies");
static_assert(std::has_unique_object_representations_v<Cursor>,
              "cursor bytes must be a function of its state");

/**
 * Snapshot record of a thread's functional position — cursor, IPRs
 * and memory regions — shared by the kernel's ThreadState and the
 * co-simulation oracle's reference state (snap/snapshot.h).
 */
template <typename Ar>
void
snapPosition(Ar &ar, Cursor &cursor, ThreadIprs &iprs,
             MemRegion (&regions)[maxRegions])
{
    ar.pod(cursor);
    ar.io(iprs.copySrc);
    ar.io(iprs.copyDst);
    ar.io(iprs.copyTrip);
    ar.io(iprs.serviceTrip);
    ar.io(iprs.intrTrip);
    ar.io(iprs.copySrcPhysical);
    ar.io(iprs.copyDstPhysical);
    for (MemRegion &r : regions) {
        ar.io(r.base);
        ar.io(r.bytes);
        ar.io(r.sharedHot);
    }
}

} // namespace smtos

#endif // SMTOS_ISA_CURSOR_H
