/**
 * @file
 * The Apache-like web server workload: 64 server processes sharing
 * one text image, each looping accept / read-request / parse / stat /
 * open / {read,writev} per chunk / close, driven by the SPECWeb-like
 * client population through the simulated network.
 */

#ifndef SMTOS_WORKLOAD_APACHE_H
#define SMTOS_WORKLOAD_APACHE_H

#include <compare>
#include <cstdint>
#include <memory>

#include "isa/program.h"
#include "kernel/kernel.h"

namespace smtos {

/** Configuration of the Apache-like server. */
struct ApacheParams
{
    int numServers = 64;
    Addr heapBytes = 1ull << 20;
    std::uint64_t seed = 4242;

    /** Field by field: sharedApache() keys its table by the whole
     *  struct, so a field added later joins the key by itself. */
    auto operator<=>(const ApacheParams &) const = default;
};

/** A built server workload. */
struct ApacheWorkload
{
    std::unique_ptr<CodeImage> image;
    int entryFunc = -1;
    ApacheParams params;
};

/** Generate the server image. */
ApacheWorkload buildApache(const ApacheParams &params);

/**
 * The workload of @p params, built once and shared by every holder
 * while one lives (isa/imagetable.h). Session takes its workload from
 * here; buildApache() gives a private copy.
 */
std::shared_ptr<const ApacheWorkload>
sharedApache(const ApacheParams &params);

/** Create the server processes in @p k. */
void installApache(Kernel &k, const ApacheWorkload &w);

} // namespace smtos

#endif // SMTOS_WORKLOAD_APACHE_H
