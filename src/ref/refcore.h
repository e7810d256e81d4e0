/**
 * @file
 * The functional reference interpreter.
 *
 * RefCore executes the same Program/KernelCode ISA as smtos::Pipeline
 * but with architecturally-visible state only: an execution cursor
 * (PC, call frames, loop counters, stochastic state), the thread's
 * magic registers, the register-value model of refvalue.h, and a
 * sparse map of memory effects. It is strictly in-order and has no
 * notion of time, speculation, caches, TLBs, or branch prediction —
 * which is exactly why it works as an oracle: the pipeline's *retired*
 * stream must equal the reference's functional stream instruction for
 * instruction, no matter what the out-of-order, wrong-path-fetching,
 * squash-happy core did to produce it. This is the same validation
 * pattern gem5 uses between its O3 CPU and the simple functional CPUs.
 *
 * The kernel model is the one part of the machine the reference cannot
 * re-execute independently (its decisions read timing-dependent state:
 * run queues, TLB contents, device queues). At every OS intervention —
 * trap vectoring, serializing-instruction semantics, interrupt
 * delivery, context-switch push — the harness captures the thread's
 * functional state and the reference adopts it, then verifies the
 * pipeline against it until the next intervention. Between
 * interventions the reference is fully independent.
 */

#ifndef SMTOS_REF_REFCORE_H
#define SMTOS_REF_REFCORE_H

#include <cstdint>

#include "isa/cursor.h"
#include "ref/refvalue.h"

namespace smtos {

class SnapImages;
struct ThreadState;

/**
 * A captured functional thread state: everything the reference needs
 * to resume lockstep execution from an OS intervention point.
 */
struct RefSyncState
{
    Cursor cursor;
    ThreadIprs iprs;
    MemRegion regions[maxRegions];
    const CodeImage *userImage = nullptr;
    bool isIdleThread = false;

    static RefSyncState capture(const ThreadState &t);
};

/** What the reference expects the next retired instruction to be. */
struct RefRetire
{
    Addr pc = 0;
    const Instr *instr = nullptr;
    Mode mode = Mode::User;
    std::int16_t tag = -1;      ///< kernel service tag, -1 for user
    Addr vaddr = 0;             ///< memory ops only
    bool taken = false;         ///< conditional branches only
    std::uint64_t destValue = 0; ///< value model result (0: no dest)
};

/** The in-order functional core for one software thread. */
class RefCore
{
  public:
    RefCore() = default;

    /** Adopt a captured thread state (OS intervention). Register
     *  values persist: they evolve only through the value model. */
    void apply(const RefSyncState &s, const CodeImage *kernel_image);

    /** True once the first sync arrived. */
    bool live() const { return live_; }

    /**
     * True when the reference executed a serializing instruction and
     * is waiting for the OS intervention that must follow it before
     * any further instruction of this thread may retire.
     */
    bool waitingForOs() const { return waitingOs_; }

    /**
     * Execute one instruction: compute the expected retirement record
     * and advance the functional state past it. A serializing
     * instruction is reported but not stepped over (the OS owns that
     * transition); waitingForOs() becomes true.
     */
    RefRetire step();

    /** Instructions executed since the first sync. */
    std::uint64_t executed() const { return executed_; }

    const Cursor &cursor() const { return cur_; }
    const ImageSet &images() const { return is_; }
    const ArchRegs &regs() const { return regs_; }

    /** The full functional state (cosim snapshot); on load
     *  @p kernelImage rebinds the image set. */
    template <typename Ar>
    void snap(Ar &ar, const SnapImages &images,
              const CodeImage *kernelImage);

  private:
    Cursor cur_;
    ThreadIprs iprs_;
    MemRegion regions_[maxRegions];
    ImageSet is_;
    bool isIdle_ = false;
    bool live_ = false;
    bool waitingOs_ = false;
    std::uint64_t executed_ = 0;
    ArchRegs regs_{};
};

} // namespace smtos

#endif // SMTOS_REF_REFCORE_H
