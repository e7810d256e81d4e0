/**
 * @file
 * The multiprogrammed SPECInt95-like workload: eight synthetic integer
 * applications, each with a start-up phase (input-file reads plus
 * first-touch page faults over a growing heap) and a steady compute
 * phase, with instruction mixes matched to the paper's Table 2 user
 * columns.
 */

#ifndef SMTOS_WORKLOAD_SPECINT_H
#define SMTOS_WORKLOAD_SPECINT_H

#include <compare>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.h"
#include "kernel/kernel.h"

namespace smtos {

/** Configuration of the SPECInt-like multiprogram. */
struct SpecIntParams
{
    int numApps = 8;
    /** Start-up input-file chunks (4KB each) read per application. */
    std::uint32_t inputChunks = 160;
    /** Heap (working set) of app i is heapBase + i*heapStep bytes. */
    Addr heapBase = 3ull << 20;
    Addr heapStep = 1ull << 20;
    std::uint64_t seed = 2017;

    /** Field by field: sharedSpecInt() keys its table by the whole
     *  struct, so a field added later joins the key by itself. */
    auto operator<=>(const SpecIntParams &) const = default;
};

/** A built multiprogrammed workload. */
struct SpecIntWorkload
{
    std::vector<std::unique_ptr<CodeImage>> images;
    std::vector<int> entryFuncs;
    SpecIntParams params;
};

/** Generate the application images. */
SpecIntWorkload buildSpecInt(const SpecIntParams &params);

/**
 * The workload of @p params, built once and shared by every holder
 * while one lives (isa/imagetable.h). Session takes its workload from
 * here; buildSpecInt() gives a private copy.
 */
std::shared_ptr<const SpecIntWorkload>
sharedSpecInt(const SpecIntParams &params);

/** Create one process per application in @p k. */
void installSpecInt(Kernel &k, const SpecIntWorkload &w);

} // namespace smtos

#endif // SMTOS_WORKLOAD_SPECINT_H
