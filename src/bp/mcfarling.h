/**
 * @file
 * McFarling-style hybrid conditional branch predictor (Table 1):
 * a 4K-entry local prediction table indexed through a 2K-entry local
 * history table, an 8K-entry global (gshare) table, and an 8K-entry
 * chooser indexed by global history. The global history register is a
 * single shared register, as on a real SMT, so threads perturb one
 * another's history — one of the interference effects the paper
 * measures.
 */

#ifndef SMTOS_BP_MCFARLING_H
#define SMTOS_BP_MCFARLING_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtos {

/** Configuration for the hybrid predictor. */
struct McFarlingParams
{
    int localHistEntries = 2048;  ///< per-branch history registers
    int localPredEntries = 4096;  ///< 2-bit counters, hist-indexed
    int globalEntries = 8192;     ///< 2-bit counters, gshare-indexed
    int chooserEntries = 8192;    ///< 2-bit chooser counters
};

/** The hybrid direction predictor. */
class McFarling
{
  public:
    explicit McFarling(const McFarlingParams &params = {});

    /** Predict the direction of the conditional branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Train all component tables with the resolved direction and
     * advance the shared global history.
     */
    void train(Addr pc, bool taken);

    /** Advance global history only (unconditional transfers). */
    void pushHistory(bool taken);

    /** Shared global history register (for checkpoint/restore). */
    std::uint64_t ghr() const { return ghr_; }
    void setGhr(std::uint64_t g) { ghr_ = g; }

    static constexpr std::uint32_t snapVersion = 2;
    template <typename Ar> void snap(Ar &ar);

  private:
    int localHistIndex(Addr pc) const;
    int localPredIndex(Addr pc) const;
    int globalIndex(Addr pc) const;
    int chooserIndex() const;

    McFarlingParams params_;
    int localHistBits_;
    std::vector<std::uint16_t> localHist_;
    std::vector<std::uint8_t> localPred_;
    std::vector<std::uint8_t> global_;
    std::vector<std::uint8_t> chooser_;
    std::uint64_t ghr_ = 0;
};

} // namespace smtos

#endif // SMTOS_BP_MCFARLING_H
