/**
 * @file
 * File system model: a buffer cache over a zero-latency disk (the
 * paper's configuration). First access to a (file, page) allocates a
 * real frame and performs the "disk DMA" (invalidating stale cached
 * copies); later accesses hit the buffer cache, so kernel file reads
 * copy from stable physical pages that multiple server processes
 * share.
 */

#include "kernel/kernel.h"

namespace smtos {

Addr
Kernel::bufcachePagePhys(int file_id, std::uint32_t page)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(file_id))
         << 20) |
        page;
    auto it = bufcache_.find(key);
    if (it == bufcache_.end()) {
        const Frame f = mem_.allocFrame();
        bufcache_.emplace(key, f);
        ++diskReads_;
        // Disk DMA into the new page: stale cache lines die.
        uncore_.dmaWrite(PhysMem::frameAddr(f),
                         static_cast<int>(pageBytes));
        return PhysMem::frameAddr(f);
    }
    return PhysMem::frameAddr(it->second);
}

} // namespace smtos
