/**
 * @file
 * Lockstep co-simulation of the timing pipeline against the
 * functional reference model.
 *
 * Cosim attaches to every core of a chip as its RetireObserver and
 * replays every architecturally committed instruction on a per-thread
 * RefCore,
 * diffing (pc, instruction, mode, kernel tag, memory address, branch
 * direction, written-register value) at each retirement. The first
 * mismatch freezes a divergence report naming the context, thread,
 * cycle, and disassembled instruction, with a window of the most
 * recently retired instructions for that thread.
 *
 * OS interventions arrive as state syncs (see RetireObserver): each
 * carries the first sequence number fetched under the new state.
 * Syncs are queued per thread and applied FIFO once the retired
 * stream reaches them; a snapshot superseded before any instruction
 * retired under it is applied transiently and then replaced, which is
 * harmless because application is pure state replacement.
 */

#ifndef SMTOS_HARNESS_COSIM_H
#define SMTOS_HARNESS_COSIM_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ref/refcore.h"

namespace smtos {

/** The retired-stream vs reference-model checker. */
class Cosim : public RetireObserver
{
  public:
    /**
     * Attach to every pipeline of @p chip. Attach before
     * System::start() so the observer sees the initial thread binds
     * (and both value models start from all-zero register files). The
     * checkers are per thread, and the chip-shared sequence counter
     * keeps each thread's seqs monotone across migration, so one
     * oracle covers every core's retired stream.
     */
    explicit Cosim(const std::vector<Pipeline *> &chip);
    ~Cosim() override;

    Cosim(const Cosim &) = delete;
    Cosim &operator=(const Cosim &) = delete;

    void onRetire(const RetireEvent &e) override;
    void onThreadStateSync(const ThreadState &t,
                           std::uint64_t firstSeq) override;

    /** True once a divergence was found; checking stops there. */
    bool diverged() const { return diverged_; }

    /** First-divergence report (empty while !diverged()). */
    const std::string &report() const { return report_; }

    /** Retired instructions verified against the reference. */
    std::uint64_t checked() const { return checked_; }

    /** State syncs received (OS interventions observed). */
    std::uint64_t syncs() const { return syncs_; }

    /**
     * The oracle's snapshot: per-thread reference cores and their
     * unapplied sync queues. Saving asserts !diverged() — a diverged
     * run must not be snapshotted. The recent-retirement report
     * windows are not saved (cosmetic only). Loading discards
     * everything observed so far (boot binds, the restore-time
     * resync) — the artifact's oracle state supersedes it wholesale.
     */
    template <typename Ar> void snap(Ar &ar, const SnapImages &images);

  private:
    struct PendingSync
    {
        std::uint64_t firstSeq = 0;
        RefSyncState state;
    };

    /** Per-thread reference core plus its sync queue and history. */
    struct ThreadChecker
    {
        RefCore ref;
        std::deque<PendingSync> pending;
        std::deque<RetireEvent> recent; ///< report window
    };

    void diverge(const RetireEvent &e, const RefRetire *expect,
                 const std::string &what);

    std::vector<Pipeline *> chip_;
    const CodeImage *kernelImage_;
    std::map<ThreadId, ThreadChecker> threads_;
    bool diverged_ = false;
    std::string report_;
    std::uint64_t checked_ = 0;
    std::uint64_t syncs_ = 0;
};

} // namespace smtos

#endif // SMTOS_HARNESS_COSIM_H
