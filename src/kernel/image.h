/**
 * @file
 * The MiniOS kernel code image.
 *
 * Every OS service the paper observes is a generated routine that the
 * simulated core actually fetches and executes: PAL TLB refill
 * handlers (physically fetched), the page-fault/allocation/zeroing
 * path, the syscall preamble and one routine per service, the network
 * driver and netisr protocol threads, the scheduler, and the idle
 * loop. "Magic" instructions inside the routines hand control to the
 * kernel model at the semantically meaningful points.
 */

#ifndef SMTOS_KERNEL_IMAGE_H
#define SMTOS_KERNEL_IMAGE_H

#include <cstdint>
#include <memory>

#include "isa/codegen.h"
#include "isa/program.h"

namespace smtos {

/** Syscall numbers used by generated user code. */
enum Sysno : std::uint16_t
{
    SysRead = 0,
    SysWrite,
    SysWritev,
    SysStat,
    SysOpen,
    SysClose,
    SysAccept,
    SysSelect,
    SysMmap,
    SysMunmap,
    SysBrk,
    SysGetPid,
    NumSysnos
};

/** Display name matching the paper's Figure 7 labels. */
const char *sysnoName(std::uint16_t n);

/** Resources a service may block on (MaybeBlock payloads). */
enum WaitChan : std::uint16_t
{
    WaitNone = 0,
    WaitAccept,   ///< pending-connection queue
    WaitRecv,     ///< socket receive data
    WaitProtoQ,   ///< netisr input queue
};

/** ServiceBody payloads: kernel-model actions inside services. */
enum SvcAction : std::uint16_t
{
    ActReadFileChunk = 0, ///< set copy IPRs for the next file chunk
    ActReadSockData,      ///< set copy IPRs for received request data
    ActStatCopyout,       ///< set copy IPRs for the stat buffer
    ActOpenFile,          ///< resolve file, set response chunk count
    ActWritevChunk,       ///< set copy IPRs user buffer -> mbuf
    ActDriverRx,          ///< move NIC ring packets to the proto queue
    ActLogWrite,          ///< small log write copy setup
    ActSpecRead,          ///< SPECInt input-file chunk read setup
};

/** Interrupt vectors. */
enum IntrVector : std::uint16_t
{
    VecNic = 0,
    VecTimer,
    VecResched,
    VecMce,       ///< machine check (injected transient fault)
    /** Cross-core TLB shootdown IPI (CMP only). The handler runs the
     *  resched interrupt code path, so the kernel image is unchanged;
     *  the kernel model counts deliveries separately. */
    VecShootdown,
};

/**
 * Hot services are generated in several variants (distinct
 * vnode/socket-type code paths, selected per process), so concurrent
 * contexts execute different kernel text, as on a real server.
 */
constexpr int serviceVariants = 4;

/** One netisr code path per protocol thread. */
constexpr int netisrVariants = 2;

/** Function indices of every kernel entry point. */
struct KernelCode
{
    CodeImage image{"kernel", kernelBase};

    int palDtlbRefill = -1;
    int palItlbRefill = -1;
    int vmPageFault = -1;
    int pageAlloc = -1;
    int pageZero = -1;

    int sysEntry[serviceVariants] = {-1, -1, -1, -1};
    int svcReadFile[serviceVariants] = {-1, -1, -1, -1};
    int svcReadSock[serviceVariants] = {-1, -1, -1, -1};
    int svcWritev[serviceVariants] = {-1, -1, -1, -1};
    int svcStat[serviceVariants] = {-1, -1, -1, -1};
    int svcOpen[serviceVariants] = {-1, -1, -1, -1};
    int svcClose[serviceVariants] = {-1, -1, -1, -1};
    int svcAccept[serviceVariants] = {-1, -1, -1, -1};
    int netOutput[serviceVariants] = {-1, -1, -1, -1};
    int svcWrite = -1;
    int svcSelect = -1;
    int svcMmap = -1;
    int svcMunmap = -1;
    int svcBrk = -1;
    int svcGetPid = -1;

    int spinWait = -1;

    int intrNet = -1;
    int intrTimer = -1;
    int intrResched = -1;
    int intrMce = -1;
    int netisrLoop[netisrVariants] = {-1, -1};
    int schedSwitch = -1;
    int idleLoop = -1;
};

/**
 * Build the kernel image. Deterministic per seed; the generated code's
 * instruction mix follows the paper's kernel columns (about half of
 * memory references physical, diamond-shaped branches with a low taken
 * rate, few loops).
 */
std::unique_ptr<KernelCode> buildKernelImage(std::uint64_t seed);

/**
 * The kernel image of @p seed, built once and shared by every holder
 * while one lives (isa/imagetable.h). System takes its image from
 * here; buildKernelImage() gives a private copy.
 */
std::shared_ptr<const KernelCode> sharedKernelImage(std::uint64_t seed);

} // namespace smtos

#endif // SMTOS_KERNEL_IMAGE_H
