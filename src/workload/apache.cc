#include "workload/apache.h"

#include "isa/codegen.h"
#include "isa/imagetable.h"
#include "kernel/layout.h"

namespace smtos {

namespace {

/** Table 5 user-column mix for the server code. */
CodeProfile
apacheProfile()
{
    CodeProfile p;
    p.loadFrac = 0.218;
    p.storeFrac = 0.101;
    p.fpFrac = 0.0;
    p.mulFrac = 0.03;
    p.physMemFrac = 0.0;
    p.seqFrac = 0.35;
    p.stackFrac = 0.30;
    p.virtRegions = {{regUserGlobals, 3.0}, {regUserHeap, 1.0}};
    p.physRegions = {};
    p.stackRegion = regUserStack;
    p.takenBias = 0.54;
    p.loopFrac = 0.18;
    p.diamondFrac = 0.45;
    p.indirectFrac = 0.09; // string/table-driven server code
    p.loopTripMin = 2;
    p.loopTripMax = 12;
    p.midBranchFrac = 0.09;
    p.instrsPerBlockMin = 4;
    p.instrsPerBlockMax = 10;
    return p;
}

} // namespace

ApacheWorkload
buildApache(const ApacheParams &params)
{
    ApacheWorkload w;
    w.params = params;
    w.image = std::make_unique<CodeImage>("apache", userTextBase);
    CodeImage &img = *w.image;
    CodeGen g(img, apacheProfile(), params.seed);

    // Helper layers: string/table leaves, then request parsing,
    // header building and logging, spread by padding the way a large
    // real binary's hot functions are.
    auto pad = [&] {
        g.genPadding(60 + static_cast<int>(g.rng().below(240)));
    };
    std::vector<int> leaves;
    for (int i = 0; i < 8; ++i) {
        pad();
        leaves.push_back(g.genFunction(
            "str" + std::to_string(i),
            14 + static_cast<int>(g.rng().below(10)), {}));
    }
    std::vector<int> parse_helpers;
    for (int i = 0; i < 6; ++i) {
        pad();
        parse_helpers.push_back(g.genFunction(
            "parse" + std::to_string(i),
            20 + static_cast<int>(g.rng().below(12)), leaves));
    }
    pad();
    const int hdr_helper =
        g.genFunction("build_headers", 28, parse_helpers);
    pad();
    const int uri_helper =
        g.genFunction("uri_match", 24, leaves);
    pad();
    const int log_helper = g.genFunction("log_fmt", 16, leaves);
    pad();

    // The server main loop.
    const int f_main = img.beginFunction("main", -1);
    img.beginBlock(); // b0: one-time setup
    g.emitWork(192);
    img.beginBlock(); // b1: accept a connection
    g.emitWork(96);
    img.emit(g.makeSyscall(SysAccept));
    g.emitWork(96);
    img.beginBlock(); // b2: read the request
    g.emitWork(64);
    img.emit(g.makeSyscall(SysRead));
    g.emitWork(64);
    img.beginBlock(); // b3: parse loop over the request buffer
    img.emit(g.makeLoad(MemPattern::CopyDst, 0, 0, 64, false));
    g.emitWork(128);
    img.emit(g.makeLoop(3, dynamicTrip, 1, 0)); // trips = copyTrip
    img.beginBlock(); // b4: request handling logic
    g.emitWork(576);
    img.emit(g.makeCall(parse_helpers[0]));
    img.beginBlock(); // b4a: URI resolution
    g.emitWork(192);
    img.emit(g.makeCall(uri_helper));
    img.beginBlock(); // b4b: more parsing
    g.emitWork(128);
    img.emit(g.makeCall(parse_helpers[3]));
    img.beginBlock(); // b5: stat the target file
    g.emitWork(128);
    img.emit(g.makeSyscall(SysStat));
    g.emitWork(160);
    img.emit(g.makeCall(hdr_helper));
    img.beginBlock(); // b6: open
    g.emitWork(96);
    img.emit(g.makeSyscall(SysOpen));
    g.emitWork(96);
    img.beginBlock(); // b7: response loop: read chunk, send chunk
    g.emitWork(64);
    img.emit(g.makeSyscall(SysRead));
    g.emitWork(96);
    img.emit(g.makeSyscall(SysWritev));
    g.emitWork(64);
    img.emit(g.makeLoop(9, dynamicTrip, 2, 1)); // trips = serviceTrip
    img.beginBlock(); // b8: close
    g.emitWork(96);
    img.emit(g.makeSyscall(SysClose));
    g.emitWork(128);
    img.beginBlock(); // b9: occasional access-log write
    g.emitWork(96);
    img.emit(g.makeCond(13, 0.90)); // usually skip the log write
    img.beginBlock(); // b10: log write
    g.emitWork(64);
    img.emit(g.makeSyscall(SysWrite));
    img.emit(g.makeCall(log_helper));
    img.beginBlock(); // b11: back to accept
    g.emitWork(128);
    img.emit(g.makeJump(1));

    img.finalize();
    w.entryFunc = f_main;
    return w;
}

std::shared_ptr<const ApacheWorkload>
sharedApache(const ApacheParams &params)
{
    static ImageTable<ApacheParams, ApacheWorkload> table;
    return table.get(params, [&params] {
        return std::make_shared<const ApacheWorkload>(
            buildApache(params));
    });
}

void
installApache(Kernel &k, const ApacheWorkload &w)
{
    for (int i = 0; i < w.params.numServers; ++i) {
        ProcParams cfg;
        cfg.kind = ProcKind::ApacheServer;
        cfg.image = w.image.get();
        cfg.entryFunc = w.entryFunc;
        cfg.seed = w.params.seed ^ (0x5151ull * (i + 3));
        cfg.heapBytes = w.params.heapBytes;
        cfg.shareText = true;
        k.createProcess(cfg);
    }
}

} // namespace smtos
