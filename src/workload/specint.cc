#include "workload/specint.h"

#include "isa/codegen.h"
#include "isa/imagetable.h"
#include "kernel/layout.h"

namespace smtos {

namespace {

/** Table 2 user-column mix for integer applications. */
CodeProfile
specIntProfile()
{
    CodeProfile p;
    p.loadFrac = 0.20;
    p.storeFrac = 0.10;
    p.fpFrac = 0.024;
    p.mulFrac = 0.06;
    p.physMemFrac = 0.0;
    p.seqFrac = 0.40;
    p.stackFrac = 0.28;
    p.virtRegions = {{regUserGlobals, 3.0}, {regUserHeap, 2.0}};
    p.physRegions = {};
    p.stackRegion = regUserStack;
    p.takenBias = 0.62;
    p.loopFrac = 0.30;
    p.diamondFrac = 0.40;
    p.indirectFrac = 0.035;
    p.loopTripMin = 4;
    p.loopTripMax = 16;
    p.midBranchFrac = 0.08;
    p.instrsPerBlockMin = 4;
    p.instrsPerBlockMax = 11;
    return p;
}

} // namespace

SpecIntWorkload
buildSpecInt(const SpecIntParams &params)
{
    SpecIntWorkload w;
    w.params = params;
    for (int app = 0; app < params.numApps; ++app) {
        auto img = std::make_unique<CodeImage>(
            "specint" + std::to_string(app), userTextBase);
        CodeGen g(*img, specIntProfile(),
                  params.seed * 2654435761ull + app);

        // Leaf and mid-level functions of varying size so the eight
        // apps have distinct text footprints and layouts.
        auto pad = [&] {
            g.genPadding(160 + static_cast<int>(
                g.rng().below(900)));
        };
        std::vector<int> leaves;
        const int num_leaves = 6 + app % 3;
        for (int i = 0; i < num_leaves; ++i) {
            pad();
            leaves.push_back(g.genFunction(
                "leaf" + std::to_string(i),
                8 + static_cast<int>(g.rng().below(8)), {}));
        }
        std::vector<int> mids;
        for (int i = 0; i < 3 + app % 2; ++i) {
            pad();
            mids.push_back(g.genFunction(
                "mid" + std::to_string(i),
                10 + static_cast<int>(g.rng().below(8)), leaves));
        }
        pad();

        // Main: start-up read/touch loop, then an infinite steady
        // loop over the working set with rare system calls.
        const int f_main = img->beginFunction("main", -1);
        img->beginBlock(); // b0: setup
        g.emitWork(5);
        img->beginBlock(); // b1: start-up loop: read a chunk, touch
                           // fresh heap pages, then compute on it
        img->emit(g.makeSyscall(SysRead));
        for (int s = 0; s < 8; ++s) {
            img->emit(g.makeStore(MemPattern::SeqStream, regUserHeap,
                                  0, 640, false));
            img->emit(g.makeAlu());
        }
        g.emitWork(4);
        img->emit(g.makeCall(mids[0]));
        img->beginBlock(); // b2: start-up loop tail
        g.emitWork(6);
        img->emit(g.makeLoop(1, dynamicTrip, 0, 1)); // serviceTrip
        img->beginBlock(); // b3: steady-state loop head
        g.emitWork(7);
        img->beginBlock(); // b4
        g.emitWork(6);
        img->emit(g.makeCall(mids[0]));
        img->beginBlock(); // b5
        g.emitWork(8);
        img->emit(g.makeCall(mids[mids.size() - 1]));
        img->beginBlock(); // b6: rare syscall diamond
        g.emitWork(4);
        img->emit(g.makeCond(8, 0.992)); // usually skip the syscall
        img->beginBlock(); // b7: occasional OS interaction
        img->emit(g.makeSyscall(app % 3 == 0
                                    ? SysBrk
                                    : (app % 3 == 1 ? SysMmap
                                                    : SysMunmap)));
        g.emitWork(3);
        img->beginBlock(); // b8: tail
        g.emitWork(6);
        img->emit(g.makeCall(leaves[0]));
        img->beginBlock(); // b9
        g.emitWork(3);
        img->emit(g.makeJump(3));

        img->finalize();
        w.entryFuncs.push_back(f_main);
        w.images.push_back(std::move(img));
    }
    return w;
}

std::shared_ptr<const SpecIntWorkload>
sharedSpecInt(const SpecIntParams &params)
{
    static ImageTable<SpecIntParams, SpecIntWorkload> table;
    return table.get(params, [&params] {
        return std::make_shared<const SpecIntWorkload>(
            buildSpecInt(params));
    });
}

void
installSpecInt(Kernel &k, const SpecIntWorkload &w)
{
    for (size_t i = 0; i < w.images.size(); ++i) {
        ProcParams cfg;
        cfg.kind = ProcKind::SpecIntApp;
        cfg.image = w.images[i].get();
        cfg.entryFunc = w.entryFuncs[i];
        cfg.seed = w.params.seed ^ (0xabcdull * (i + 1));
        cfg.heapBytes =
            w.params.heapBase + w.params.heapStep * (i % 4);
        cfg.inputChunks = w.params.inputChunks;
        cfg.inputFileId = 1000 + static_cast<int>(i);
        cfg.shareText = false;
        k.createProcess(cfg);
    }
}

} // namespace smtos
