/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself:
 * simulation rate (simulated instructions per host second) for each
 * workload/configuration, the cost of a snapshot resume, plus core
 * substrate hot paths.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "bp/mcfarling.h"
#include "common/ring.h"
#include "harness/session.h"
#include "isa/program.h"
#include "mem/cache.h"
#include "vm/addrspace.h"
#include "vm/physmem.h"
#include "vm/tlb.h"

using namespace smtos;

namespace {

void
BM_SimRate_SpecIntSmt(benchmark::State &state)
{
    for (auto _ : state) {
        Session::Config s;
        s.workload.kind = WorkloadConfig::Kind::SpecInt;
        s.workload.spec.inputChunks = 8;
        s.phases.startupInstrs = 50'000;
        s.phases.measureInstrs = static_cast<std::uint64_t>(state.range(0));
        RunResult r = Session(s).run();
        benchmark::DoNotOptimize(r.steady.core.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_SimRate_ApacheSmt(benchmark::State &state)
{
    for (auto _ : state) {
        Session::Config s;
        s.workload.kind = WorkloadConfig::Kind::Apache;
        s.phases.startupInstrs = 50'000;
        s.phases.measureInstrs = static_cast<std::uint64_t>(state.range(0));
        RunResult r = Session(s).run();
        benchmark::DoNotOptimize(r.steady.core.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_SimRate_SpecIntFunctional(benchmark::State &state)
{
    for (auto _ : state) {
        Session::Config s;
        s.workload.kind = WorkloadConfig::Kind::SpecInt;
        s.workload.spec.inputChunks = 8;
        s.fidelity = Fidelity::Functional;
        s.phases.startupInstrs = 50'000;
        s.phases.measureInstrs = static_cast<std::uint64_t>(state.range(0));
        RunResult r = Session(s).run();
        benchmark::DoNotOptimize(r.steady.core.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_SimRate_ApacheFunctional(benchmark::State &state)
{
    for (auto _ : state) {
        Session::Config s;
        s.workload.kind = WorkloadConfig::Kind::Apache;
        s.fidelity = Fidelity::Functional;
        s.phases.startupInstrs = 50'000;
        s.phases.measureInstrs = static_cast<std::uint64_t>(state.range(0));
        RunResult r = Session(s).run();
        benchmark::DoNotOptimize(r.steady.core.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_SimRate_SpecIntSampled(benchmark::State &state)
{
    for (auto _ : state) {
        Session::Config s;
        s.workload.kind = WorkloadConfig::Kind::SpecInt;
        s.workload.spec.inputChunks = 8;
        s.sample.enabled = true;
        s.phases.startupInstrs = 50'000;
        s.phases.measureInstrs = static_cast<std::uint64_t>(state.range(0));
        RunResult r = Session(s).run();
        benchmark::DoNotOptimize(r.sample.cpi.mean);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

/**
 * Session::resume of an Apache 1x8 start-up artifact. With the origin
 * session alive (origin_alive:1) the resume shares its code images;
 * once the origin is gone (origin_alive:0) every resume builds them.
 * The resumed session's teardown is not timed.
 */
void
BM_SessionResume(benchmark::State &state)
{
    Session::Config s;
    s.workload.kind = WorkloadConfig::Kind::Apache;
    s.phases.startupInstrs = 260'000;
    auto origin = std::make_unique<Session>(s);
    origin->runStartup();
    const std::vector<std::uint8_t> artifact = origin->snapshot();
    if (state.range(0) == 0)
        origin.reset();
    Session::ResumeOptions opts;
    opts.phases = s.phases;
    for (auto _ : state) {
        std::unique_ptr<Session> r = Session::resume(artifact, opts);
        benchmark::DoNotOptimize(r.get());
        state.PauseTiming();
        r.reset();
        state.ResumeTiming();
    }
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c(CacheParams{});
    AccessInfo who{1, Mode::User, 0};
    // Precompute the address stream so the timed loop measures the
    // cache, not the RNG.
    Rng rng(1);
    std::vector<Addr> addrs(4096);
    for (Addr &a : addrs)
        a = rng.below(1 << 22) & ~7ull;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(addrs[i], who, false));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_FixedRing(benchmark::State &state)
{
    // The pipeline's per-context queue idiom: push a burst, walk it,
    // pop from the front (commit) with an occasional tail rewind
    // (squash).
    FixedRing<std::uint64_t> ring;
    ring.init(64);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (int k = 0; k < 8; ++k)
            ring.push_back(static_cast<std::uint64_t>(k));
        for (std::size_t k = 0; k < ring.size(); ++k)
            sum += ring[k];
        ring.pop_back();
        while (!ring.empty())
            ring.pop_front();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * 8);
}

void
BM_TlbLookup(benchmark::State &state)
{
    // Hot TLB hits over a working set that fits the TLB — the case
    // the index-hint cache accelerates past the associative scan.
    Tlb tlb("bench-dtlb", 128);
    AccessInfo who{1, Mode::User, 0};
    constexpr Addr pages = 96;
    for (Addr v = 0; v < pages; ++v)
        tlb.insert(v, 1, static_cast<Frame>(v + 1), who);
    Rng rng(3);
    std::vector<Addr> vpns(4096);
    for (Addr &v : vpns)
        v = rng.below(pages);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(vpns[i], 1, who));
        i = (i + 1) & (vpns.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TlbLookupSharedVpns(benchmark::State &state)
{
    // The multiprogrammed shape: eight address spaces mapping the same
    // VPNs (every SPECInt image sits at userTextBase), looked up with
    // the ASNs interleaved as SMT fetch interleaves contexts.
    Tlb tlb("bench-itlb", 128);
    constexpr Addr pages = 12;
    constexpr Asn spaces = 8;
    const Addr base = pageOf(userTextBase);
    for (Asn asn = 1; asn <= spaces; ++asn)
        for (Addr v = 0; v < pages; ++v)
            tlb.insert(base + v, asn, static_cast<Frame>(asn * 100 + v),
                       AccessInfo{asn, Mode::User, 0});
    Rng rng(5);
    std::vector<std::pair<Addr, Asn>> stream(4096);
    for (std::size_t k = 0; k < stream.size(); ++k)
        stream[k] = {base + rng.below(pages),
                     static_cast<Asn>(1 + k % spaces)};
    std::size_t i = 0;
    for (auto _ : state) {
        const auto [vpn, asn] = stream[i];
        benchmark::DoNotOptimize(
            tlb.lookup(vpn, asn, AccessInfo{asn, Mode::User, 0}));
        i = (i + 1) & (stream.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_AddrSpaceTranslate(benchmark::State &state)
{
    PhysMem mem;
    AddrSpace sp(1, mem);
    constexpr Addr pages = 512;
    for (Addr v = 0; v < pages; ++v)
        sp.mapNew(v);
    Rng rng(4);
    std::vector<Addr> vpns(4096);
    for (Addr &v : vpns)
        v = rng.below(pages);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sp.translate(vpns[i]));
        i = (i + 1) & (vpns.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PredictorTrain(benchmark::State &state)
{
    McFarling m;
    Rng rng(2);
    Addr pc = 0x1000;
    for (auto _ : state) {
        const bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(m.predict(pc));
        m.train(pc, taken);
        pc = 0x1000 + (rng.below(512) << 2);
    }
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK(BM_SimRate_SpecIntSmt)->Arg(200000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SimRate_ApacheSmt)->Arg(200000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SimRate_SpecIntFunctional)->Arg(1000000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SimRate_ApacheFunctional)->Arg(1000000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SimRate_SpecIntSampled)->Arg(1000000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SessionResume)
    ->ArgName("origin_alive")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_PredictorTrain);
BENCHMARK(BM_FixedRing);
BENCHMARK(BM_TlbLookup);
BENCHMARK(BM_TlbLookupSharedVpns);
BENCHMARK(BM_AddrSpaceTranslate);

BENCHMARK_MAIN();
