/**
 * @file
 * Per-context return address stack. The SMT duplicates subroutine
 * return prediction per hardware context (Section 2.1 of the paper).
 */

#ifndef SMTOS_BP_RAS_H
#define SMTOS_BP_RAS_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtos {

/** A single context's return address stack. */
class Ras
{
  public:
    explicit Ras(int depth = 16);

    /** Push a return address (on fetching a call). */
    void push(Addr ret_addr);

    /** Pop the predicted return address (on fetching a return). */
    Addr pop();

    /** Checkpoint for speculation repair: stack pointer and top. */
    struct Checkpoint
    {
        int sp;
        Addr top;
    };

    Checkpoint save() const;
    void restore(const Checkpoint &cp);

    int depth() const { return static_cast<int>(stack_.size()); }
    int sp() const { return sp_; }

    static constexpr std::uint32_t snapVersion = 1;
    template <typename Ar> void snap(Ar &ar);

  private:
    std::vector<Addr> stack_;
    int sp_ = 0; // next free slot (wraps)
};

} // namespace smtos

#endif // SMTOS_BP_RAS_H
