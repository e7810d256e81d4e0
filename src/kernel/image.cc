#include "kernel/image.h"

#include "common/logging.h"
#include "common/rng.h"
#include "isa/imagetable.h"
#include "kernel/layout.h"
#include "kernel/tags.h"

namespace smtos {

const char *
serviceTagName(int tag)
{
    switch (tag) {
      case TagIdle: return "idle";
      case TagPalDtlb: return "pal_dtlb";
      case TagPalItlb: return "pal_itlb";
      case TagVmFault: return "vm_fault";
      case TagPageAlloc: return "page_alloc";
      case TagPageZero: return "page_zero";
      case TagSysPreamble: return "sys_preamble";
      case TagRead: return "read";
      case TagReadSock: return "read_sock";
      case TagWrite: return "write";
      case TagWritev: return "writev";
      case TagStat: return "stat";
      case TagOpen: return "open";
      case TagClose: return "close";
      case TagAccept: return "accept";
      case TagSelect: return "select";
      case TagMmap: return "smmap";
      case TagMunmap: return "munmap";
      case TagProcCtl: return "proc_ctl";
      case TagNetProto: return "net_proto";
      case TagInterrupt: return "interrupt";
      case TagNetIsr: return "netisr";
      case TagSched: return "sched";
      case TagSpin: return "spin";
      default: return "?";
    }
}

ServiceGroup
serviceGroupOf(int tag)
{
    switch (tag) {
      case TagIdle:
        return ServiceGroup::Idle;
      case TagPalDtlb:
      case TagPalItlb:
      case TagVmFault:
      case TagPageAlloc:
      case TagPageZero:
        return ServiceGroup::TlbHandling;
      case TagInterrupt:
        return ServiceGroup::Interrupt;
      case TagNetIsr:
        return ServiceGroup::NetIsr;
      case TagSched:
      case TagSpin:
        return ServiceGroup::Sched;
      default:
        return ServiceGroup::Syscall;
    }
}

const char *
serviceGroupName(ServiceGroup g)
{
    switch (g) {
      case ServiceGroup::Idle: return "idle";
      case ServiceGroup::TlbHandling: return "tlb+vm";
      case ServiceGroup::Syscall: return "syscalls";
      case ServiceGroup::Interrupt: return "interrupts";
      case ServiceGroup::NetIsr: return "netisr";
      case ServiceGroup::Sched: return "sched";
      default: return "?";
    }
}

const char *
sysnoName(std::uint16_t n)
{
    switch (n) {
      case SysRead: return "read";
      case SysWrite: return "write";
      case SysWritev: return "writev";
      case SysStat: return "stat";
      case SysOpen: return "open";
      case SysClose: return "close";
      case SysAccept: return "naccept";
      case SysSelect: return "select";
      case SysMmap: return "smmap";
      case SysMunmap: return "munmap";
      case SysBrk: return "obreak";
      case SysGetPid: return "getpid";
      default: return "?";
    }
}

namespace {

/** Kernel-code generation profile (Table 2/5 kernel columns). */
CodeProfile
kernelProfile()
{
    CodeProfile p;
    p.loadFrac = 0.19;
    p.storeFrac = 0.13;
    p.fpFrac = 0.0;
    p.mulFrac = 0.02;
    p.physMemFrac = 0.52;
    p.seqFrac = 0.15;
    p.stackFrac = 0.30;
    p.virtRegions = {{regKVirt, 1.0}};
    p.physRegions = {{regKPhys, 2.0}, {regMbuf, 1.0}};
    p.stackRegion = regKStack;
    p.takenBias = 0.30; // diamond exceptional-condition branches
    p.loopFrac = 0.06;
    p.diamondFrac = 0.55;
    p.indirectFrac = 0.05;
    p.loopTripMin = 2;
    p.loopTripMax = 6;
    p.midBranchFrac = 0.07;
    p.instrsPerBlockMin = 5;
    p.instrsPerBlockMax = 14;
    return p;
}

} // namespace

std::unique_ptr<KernelCode>
buildKernelImage(std::uint64_t seed)
{
    auto kc = std::make_unique<KernelCode>();
    CodeImage &img = kc->image;
    CodeGen g(img, kernelProfile(), seed);

    // Real kernel services run through layers of helpers spread over
    // megabytes of text; helper pools and inter-function padding
    // reproduce that I-cache/BTB pressure. Hot services come in
    // serviceVariants flavors (distinct vnode/socket-type paths)
    // selected per process, so concurrently running contexts execute
    // different code paths, as on a real server.
    Rng prng(seed ^ 0x7171u);
    auto pad = [&] {
        g.genPadding(200 + static_cast<int>(prng.below(1200)));
    };
    auto utilPool = [&](const std::string &base, int tag, int count) {
        std::vector<int> v;
        for (int i = 0; i < count; ++i) {
            pad();
            v.push_back(g.genFunction(
                base + std::to_string(i),
                8 + static_cast<int>(prng.below(10)), {}, tag));
        }
        return v;
    };
    auto tail_calls = [&](const std::vector<int> &utils, int k) {
        for (int i = 0; i < k; ++i) {
            img.emit(g.makeCall(utils[prng.below(utils.size())]));
            img.beginBlock();
            g.emitWork(6 + static_cast<int>(prng.below(10)), 0.6);
        }
    };

    // ---- PAL TLB refill handlers (physically fetched) ----
    kc->palDtlbRefill =
        img.beginFunction("pal_dtlb_refill", TagPalDtlb, true);
    img.beginBlock();
    g.emitWork(100, 1.0);
    img.emit(g.makeLoad(MemPattern::PteWalk, 0, 0, 8, true));
    g.emitWork(80, 1.0);
    img.emit(g.makeTlbWrite());
    g.emitWork(60, 1.0);
    img.emit(g.makePalReturn());

    kc->palItlbRefill =
        img.beginFunction("pal_itlb_refill", TagPalItlb, true);
    img.beginBlock();
    g.emitWork(100, 1.0);
    img.emit(g.makeLoad(MemPattern::PteWalk, 0, 0, 8, true));
    g.emitWork(80, 1.0);
    img.emit(g.makeTlbWrite());
    g.emitWork(60, 1.0);
    img.emit(g.makePalReturn());

    // ---- page allocator and page zeroing ----
    const auto u_vm = utilPool("u_vm", TagVmFault, 3);
    pad();
    kc->pageAlloc = img.beginFunction("page_alloc", TagPageAlloc);
    img.beginBlock();
    g.emitWork(360, 0.9);
    img.emit(g.makeMagic(MagicOp::AllocPage));
    g.emitWork(200, 0.9);
    img.emit(g.makeReturn());

    pad();
    kc->pageZero = img.beginFunction("page_zero", TagPageZero);
    img.beginBlock();
    g.emitWork(60, 0.0);
    img.beginBlock(); // the zeroing loop (64 x 64B lines)
    img.emit(g.makeStore(MemPattern::FrameTouch, 0, 0, 64, true));
    img.emit(g.makeAlu());
    img.emit(g.makeLoop(1, 64, 0));
    img.beginBlock();
    g.emitWork(40, 0.0);
    img.emit(g.makeReturn());

    pad();
    kc->vmPageFault = img.beginFunction("vm_page_fault", TagVmFault);
    img.beginBlock();
    g.emitWork(440, 0.5);
    img.emit(g.makeCond(1, 0.0));
    img.beginBlock();
    g.emitWork(180, 0.5);
    img.emit(g.makeCall(kc->pageAlloc));
    img.beginBlock();
    g.emitWork(120, 0.5);
    img.emit(g.makeCall(kc->pageZero));
    img.beginBlock();
    g.emitWork(100, 0.5);
    img.emit(g.makeTlbWrite());
    g.emitWork(80, 0.5);
    tail_calls(u_vm, 1);
    img.emit(g.makePalReturn());

    // ---- per-variant hot service paths ----
    for (int v = 0; v < serviceVariants; ++v) {
        const std::string sv = "v" + std::to_string(v) + "_";

        const auto u_read = utilPool(sv + "u_read", TagRead, 3);
        const auto u_rsock = utilPool(sv + "u_rsock", TagReadSock, 2);
        const auto u_wv = utilPool(sv + "u_writev", TagWritev, 2);
        const auto u_proto = utilPool(sv + "u_proto", TagNetProto, 3);
        const auto u_stat = utilPool(sv + "u_stat", TagStat, 2);
        const auto u_open = utilPool(sv + "u_open", TagOpen, 2);
        const auto u_close = utilPool(sv + "u_close", TagClose, 2);
        const auto u_acc = utilPool(sv + "u_accept", TagAccept, 2);
        const auto u_pre = utilPool(sv + "u_pre", TagSysPreamble, 2);

        auto gen_lookup = [&](const std::string &name, int tag) {
            pad();
            const int f = img.beginFunction(name, tag);
            img.beginBlock();
            g.emitWork(160, 0.6);
            img.beginBlock(); // per-component loop
            g.emitWork(480, 0.75);
            img.emit(g.makeLoop(1, 3, 1));
            img.beginBlock();
            g.emitWork(120, 0.6);
            img.emit(g.makeReturn());
            return f;
        };
        const int lk_stat = gen_lookup(sv + "fs_lookup_stat", TagStat);
        const int lk_open = gen_lookup(sv + "fs_lookup_open", TagOpen);

        pad();
        kc->netOutput[v] =
            img.beginFunction(sv + "net_output", TagNetProto);
        img.beginBlock();
        g.emitWork(600, 0.8);
        img.beginBlock(); // checksum loop over the mbuf chunk
        img.emit(g.makeLoad(MemPattern::CopyDst, 0, 0, 64, true));
        img.emit(g.makeAlu());
        img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
        img.beginBlock();
        g.emitWork(440, 0.8);
        img.emit(g.makeMagic(MagicOp::NetSend));
        g.emitWork(280, 0.8);
        tail_calls(u_proto, 2);
        img.emit(g.makeReturn());

        pad();
        kc->svcReadFile[v] =
            img.beginFunction(sv + "svc_read_file", TagRead);
        img.beginBlock();
        g.emitWork(480, 0.5);
        img.emit(g.makeMagic(MagicOp::ServiceBody, ActReadFileChunk));
        img.beginBlock(); // copy: buffer cache -> user buffer
        img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 64, true));
        img.emit(g.makeStore(MemPattern::CopyDst, 0, 0, 64, false));
        img.emit(g.makeAlu());
        img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
        img.beginBlock();
        g.emitWork(220, 0.5);
        tail_calls(u_read, 2);
        img.emit(g.makeReturn());

        pad();
        kc->svcReadSock[v] =
            img.beginFunction(sv + "svc_read_sock", TagReadSock);
        img.beginBlock();
        g.emitWork(320, 0.6);
        img.emit(g.makeMagic(MagicOp::MaybeBlock, WaitRecv));
        g.emitWork(120, 0.6);
        img.emit(g.makeMagic(MagicOp::ServiceBody, ActReadSockData));
        img.beginBlock(); // copy: mbuf -> user buffer
        img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 64, true));
        img.emit(g.makeStore(MemPattern::CopyDst, 0, 0, 64, false));
        img.emit(g.makeAlu());
        img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
        img.beginBlock();
        g.emitWork(560, 0.7);
        tail_calls(u_rsock, 2);
        img.emit(g.makeReturn());

        pad();
        kc->svcWritev[v] =
            img.beginFunction(sv + "svc_writev", TagWritev);
        img.beginBlock();
        g.emitWork(360, 0.5);
        img.emit(g.makeMagic(MagicOp::ServiceBody, ActWritevChunk));
        img.beginBlock(); // copy: user buffer -> mbuf
        img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 64, false));
        img.emit(g.makeStore(MemPattern::CopyDst, 0, 0, 64, true));
        img.emit(g.makeAlu());
        img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
        img.beginBlock();
        g.emitWork(160, 0.5);
        img.emit(g.makeCall(kc->netOutput[v]));
        img.beginBlock();
        g.emitWork(140, 0.5);
        tail_calls(u_wv, 1);
        img.emit(g.makeReturn());

        pad();
        kc->svcStat[v] = img.beginFunction(sv + "svc_stat", TagStat);
        img.beginBlock();
        g.emitWork(260, 0.5);
        img.emit(g.makeCall(lk_stat));
        img.beginBlock();
        g.emitWork(180, 0.6);
        img.emit(g.makeMagic(MagicOp::ServiceBody, ActStatCopyout));
        img.beginBlock(); // copy out the stat buffer
        img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 8, true));
        img.emit(g.makeStore(MemPattern::CopyDst, 0, 0, 8, false));
        img.emit(g.makeLoop(1, 8, 0));
        img.beginBlock();
        g.emitWork(140, 0.5);
        tail_calls(u_stat, 2);
        img.emit(g.makeReturn());

        pad();
        kc->svcOpen[v] = img.beginFunction(sv + "svc_open", TagOpen);
        img.beginBlock();
        g.emitWork(220, 0.5);
        img.emit(g.makeCall(lk_open));
        img.beginBlock();
        g.emitWork(680, 0.6);
        img.emit(g.makeMagic(MagicOp::ServiceBody, ActOpenFile));
        g.emitWork(180, 0.5);
        tail_calls(u_open, 2);
        img.emit(g.makeReturn());

        pad();
        kc->svcClose[v] =
            img.beginFunction(sv + "svc_close", TagClose);
        img.beginBlock();
        g.emitWork(720, 0.6);
        img.emit(g.makeCond(2, 0.3));
        img.beginBlock();
        g.emitWork(400, 0.7);
        img.beginBlock();
        g.emitWork(240, 0.5);
        tail_calls(u_close, 1);
        img.emit(g.makeReturn());

        pad();
        kc->svcAccept[v] =
            img.beginFunction(sv + "svc_accept", TagAccept);
        img.beginBlock();
        g.emitWork(340, 0.6);
        img.emit(g.makeMagic(MagicOp::MaybeBlock, WaitAccept));
        g.emitWork(80, 0.5);
        img.beginBlock();
        g.emitWork(1040, 0.7);
        img.emit(g.makeCond(3, 0.25));
        img.beginBlock();
        g.emitWork(360, 0.7);
        img.beginBlock();
        g.emitWork(280, 0.5);
        tail_calls(u_acc, 2);
        img.emit(g.makeReturn());

        pad();
        kc->sysEntry[v] =
            img.beginFunction(sv + "sys_entry", TagSysPreamble);
        img.beginBlock();
        g.emitWork(380, 0.6);
        img.emit(g.makeMagic(MagicOp::KernelDispatch));
        g.emitWork(140, 0.6);
        img.beginBlock();
        g.emitWork(160, 0.6);
        tail_calls(u_pre, 1);
        img.emit(g.makePalReturn());
    }

    // ---- single-path services ----
    pad();
    kc->svcWrite = img.beginFunction("svc_write", TagWrite);
    img.beginBlock();
    g.emitWork(280, 0.5);
    img.emit(g.makeMagic(MagicOp::ServiceBody, ActLogWrite));
    img.beginBlock();
    img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 64, false));
    img.emit(g.makeStore(MemPattern::CopyDst, 0, 0, 64, true));
    img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
    img.beginBlock();
    g.emitWork(180, 0.5);
    img.emit(g.makeReturn());

    pad();
    kc->svcSelect = img.beginFunction("svc_select", TagSelect);
    img.beginBlock();
    g.emitWork(240, 0.5);
    img.beginBlock(); // fd scan loop
    g.emitWork(180, 0.6);
    img.emit(g.makeLoop(1, 8, 1));
    img.beginBlock();
    g.emitWork(200, 0.5);
    img.emit(g.makeReturn());

    pad();
    kc->svcMmap = img.beginFunction("svc_smmap", TagMmap);
    img.beginBlock();
    g.emitWork(760, 0.5);
    img.emit(g.makeCond(1, 0.2));
    img.beginBlock();
    g.emitWork(520, 0.6);
    img.beginBlock();
    g.emitWork(440, 0.5);
    img.emit(g.makeReturn());

    pad();
    kc->svcMunmap = img.beginFunction("svc_munmap", TagMunmap);
    img.beginBlock();
    g.emitWork(600, 0.5);
    img.emit(g.makeMagic(MagicOp::TlbFlushAsn, 0)); // page flush
    g.emitWork(360, 0.5);
    img.emit(g.makeReturn());

    pad();
    kc->svcBrk = img.beginFunction("svc_obreak", TagProcCtl);
    img.beginBlock();
    g.emitWork(560, 0.5);
    img.emit(g.makeReturn());

    pad();
    kc->svcGetPid = img.beginFunction("svc_getpid", TagProcCtl);
    img.beginBlock();
    g.emitWork(180, 0.4);
    img.emit(g.makeReturn());

    // ---- spin-wait (lock contention, e.g. shared TLB IPRs) ----
    pad();
    kc->spinWait = img.beginFunction("spin_wait", TagSpin);
    img.beginBlock(); // busy-wait loop; trips set by the kernel model
    g.emitWork(3, 1.0);
    img.emit(g.makeLoop(0, dynamicTrip, 0, 2)); // trips from intrTrip
    img.beginBlock();
    img.emit(g.makeReturn());

    // ---- interrupt handlers ----
    const auto u_intr = utilPool("u_intr", TagInterrupt, 3);
    pad();
    kc->intrNet = img.beginFunction("intr_net", TagInterrupt);
    img.beginBlock();
    g.emitWork(420, 0.8);
    img.emit(g.makeMagic(MagicOp::ServiceBody, ActDriverRx));
    g.emitWork(80, 0.8);
    img.beginBlock(); // per-received-packet driver loop
    g.emitWork(260, 0.85);
    img.emit(g.makeLoop(1, dynamicTrip, 1, 2)); // trips from intrTrip
    img.beginBlock();
    g.emitWork(180, 0.7);
    tail_calls(u_intr, 1);
    img.emit(g.makePalReturn());

    pad();
    kc->intrTimer = img.beginFunction("intr_timer", TagInterrupt);
    img.beginBlock();
    g.emitWork(480, 0.7);
    img.emit(g.makeMagic(MagicOp::Reschedule, 1)); // preempt
    g.emitWork(160, 0.7);
    img.emit(g.makePalReturn());

    pad();
    kc->intrResched = img.beginFunction("intr_resched", TagInterrupt);
    img.beginBlock();
    g.emitWork(260, 0.7);
    img.emit(g.makeMagic(MagicOp::Reschedule, 0));
    g.emitWork(100, 0.7);
    img.emit(g.makePalReturn());

    // ---- netisr kernel threads (one code path per thread) ----
    for (int v = 0; v < netisrVariants; ++v) {
        const std::string sv = "isr" + std::to_string(v) + "_";
        const auto u_isr = utilPool(sv + "u", TagNetIsr, 3);
        pad();
        kc->netisrLoop[v] =
            img.beginFunction(sv + "netisr_loop", TagNetIsr);
        img.beginBlock();
        img.emit(g.makeMagic(MagicOp::MaybeBlock, WaitProtoQ));
        g.emitWork(100, 0.8);
        img.emit(g.makeMagic(MagicOp::NetDeliver));
        g.emitWork(240, 0.85);
        img.beginBlock(); // checksum/copy walk over the packet
        img.emit(g.makeLoad(MemPattern::CopySrc, 0, 0, 64, true));
        img.emit(g.makeAlu());
        img.emit(g.makeLoop(1, dynamicTrip, 0, 0));
        img.beginBlock(); // socket insert + wakeups
        g.emitWork(680, 0.8);
        img.emit(g.makeCond(4, 0.2));
        img.beginBlock();
        g.emitWork(300, 0.8);
        img.beginBlock();
        g.emitWork(120, 0.8);
        tail_calls(u_isr, 2);
        img.emit(g.makeJump(0));
    }

    // ---- scheduler ----
    const auto u_sched = utilPool("u_sched", TagSched, 2);
    pad();
    kc->schedSwitch = img.beginFunction("sched_switch", TagSched);
    img.beginBlock();
    g.emitWork(520, 0.8);
    img.emit(g.makeCond(2, 0.15)); // ASN reassignment path
    img.beginBlock();
    g.emitWork(220, 0.8);
    img.beginBlock();
    g.emitWork(260, 0.8);
    tail_calls(u_sched, 1);
    img.emit(g.makeReturn());

    // ---- idle loop ----
    pad();
    kc->idleLoop = img.beginFunction("idle_loop", TagIdle);
    img.beginBlock();
    g.emitWork(140, 0.6);
    img.emit(g.makeMagic(MagicOp::Reschedule, 2)); // idle poll
    img.emit(g.makeJump(0));

    // ---- machine-check handler ----
    // Generated after every pre-existing function so that attaching
    // the fault subsystem shifts no earlier code address and perturbs
    // no earlier generator RNG draw: fault-free runs on this image are
    // bit-identical to runs on the image without it.
    pad();
    kc->intrMce = img.beginFunction("intr_mce", TagInterrupt);
    img.beginBlock();
    g.emitWork(520, 0.8); // log + scrub the reported structure
    img.emit(g.makeCond(1, 0.15));
    img.beginBlock();
    g.emitWork(260, 0.75); // slow path: walk the error bank
    img.beginBlock();
    g.emitWork(160, 0.75);
    img.emit(g.makePalReturn());

    img.finalize();
    return kc;
}

std::shared_ptr<const KernelCode>
sharedKernelImage(std::uint64_t seed)
{
    static ImageTable<std::uint64_t, KernelCode> table;
    return table.get(seed, [seed] { return buildKernelImage(seed); });
}

} // namespace smtos
