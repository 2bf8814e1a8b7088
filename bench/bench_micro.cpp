/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache/hierarchy lookups, perceptron prediction, arena recycling,
 * issue-queue operations, LLIB/LLRF traffic, workload generation,
 * whole-core simulation throughput (simulated instructions per
 * second), checkpoint restore and suite-level sweep throughput.
 *
 * Run with --benchmark_format=json for the machine-readable rows the
 * CI harness archives.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/core/inst_arena.hh"
#include "src/core/issue_queue.hh"
#include "src/core/ooo_core.hh"
#include "src/dkip/dkip_core.hh"
#include "src/dkip/llib.hh"
#include "src/dkip/llrf.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/mshr.hh"
#include "src/pred/perceptron.hh"
#include "src/sim/session.hh"
#include "src/sim/simulator.hh"
#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/util/rng.hh"
#include "src/wload/profile.hh"
#include "src/wload/synthetic.hh"
#include "src/wload/trace_window.hh"

using namespace kilo;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheGeometry g;
    g.sizeBytes = 512 * 1024;
    g.assoc = 8;
    mem::SetAssocCache cache(g);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.range(4 * 1024 * 1024)));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyAccess(benchmark::State &state)
{
    mem::MemoryHierarchy mem(mem::MemConfig::mem400());
    Rng rng(2);
    uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(rng.range(8 * 1024 * 1024), false, now));
        now += 3;
    }
}
BENCHMARK(BM_HierarchyAccess);

/** Streaming-miss traffic: every access touches a new line, the
 *  pattern that made the old unordered_map fill tracker leak one
 *  entry per line and rehash under growth. The MSHR file keeps this
 *  O(ways) probes over a fixed array. */
void
BM_MemHierarchyStream(benchmark::State &state)
{
    mem::MemoryHierarchy mem(mem::MemConfig::mem400());
    uint64_t line = 0;
    uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.access(line * 64, false, now));
        ++line;
        now += 2;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MemHierarchyStream);

/** The MSHR traffic idle-skip produces: a burst of 16 misses (lookup,
 *  then a 400-cycle fill) a cycle apart, then a 400-cycle jump, so
 *  every burst starts past the sweep deadline of a 4096-entry file.
 *  A sweep that scans the whole file pays O(capacity) per burst;
 *  the expiry queue pays only for the fills that landed. */
void
BM_MshrFileMissStream(benchmark::State &state)
{
    mem::MshrFile mshrs(4096, 400);
    uint64_t line = 0;
    uint64_t now = 0;
    for (auto _ : state) {
        if (mshrs.lookup(line, now) == 0)
            mshrs.allocate(line, now + 400, now);
        ++line;
        now += line % 16 == 0 ? 400 : 1;
    }
    benchmark::DoNotOptimize(mshrs.occupancy());
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MshrFileMissStream);

void
BM_PerceptronLookup(benchmark::State &state)
{
    pred::PerceptronPredictor bp;
    uint64_t pc = 0x1000, hist = 0xdeadbeef;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.lookup(pc, hist));
        pc += 4;
        hist = (hist << 1) | 1;
    }
}
BENCHMARK(BM_PerceptronLookup);

void
BM_PerceptronTrain(benchmark::State &state)
{
    pred::PerceptronPredictor bp;
    uint64_t pc = 0x1000, hist = 0;
    bool taken = false;
    for (auto _ : state) {
        bp.train(pc, hist, taken);
        pc += 4;
        hist = (hist << 1) | (taken ? 1 : 0);
        taken = !taken;
    }
}
BENCHMARK(BM_PerceptronTrain);

void
BM_InstArenaAllocFree(benchmark::State &state)
{
    core::InstArena arena;
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        benchmark::DoNotOptimize(inst.seq);
        arena.free(ref);
    }
}
BENCHMARK(BM_InstArenaAllocFree);

void
BM_IssueQueueInsertPop(benchmark::State &state)
{
    core::InstArena arena;
    core::IssueQueue q("bench", 4096, core::SchedPolicy::OutOfOrder,
                       arena);
    q.assignId(0);
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        inst.readyFlag = true;
        q.insert(ref);
        core::InstRef got = q.popReady(0);
        arena.get(got).issued = true;
        q.removeIssued(got);
        arena.free(got);
    }
}
BENCHMARK(BM_IssueQueueInsertPop);

void
BM_LlibPushPop(benchmark::State &state)
{
    core::InstArena arena;
    dkip::Llib llib("bench", 2048, arena);
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        llib.push(ref);
        benchmark::DoNotOptimize(llib.popFront());
        arena.free(ref);
    }
}
BENCHMARK(BM_LlibPushPop);

void
BM_LlrfAllocRelease(benchmark::State &state)
{
    core::InstArena arena;
    dkip::Llrf llrf;
    core::InstRef ref = arena.alloc();
    core::DynInst &inst = arena.get(ref);
    for (auto _ : state) {
        llrf.tryAlloc(inst);
        llrf.release(inst);
        llrf.beginCycle();
    }
}
BENCHMARK(BM_LlrfAllocRelease);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    for (auto _ : state)
        benchmark::DoNotOptimize(wl->next());
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_WorkloadGeneration);

namespace
{

/** Shared body of the replay benchmarks: record 256k swim ops once,
 *  then pull through the batched nextBlock path with @p mode. */
void
traceReplayBody(benchmark::State &state, trace::ReadMode mode)
{
    const char *path = "bench_trace_replay.ktrc";
    {
        // Record once: 256k swim ops, written via the block API.
        wload::SyntheticWorkload inner(
            wload::profileByName("swim"));
        trace::CapturingWorkload capture(inner, path,
                                         inner.profile().seed);
        isa::MicroOp buf[256];
        for (int i = 0; i < 1024; ++i)
            capture.nextBlock(buf, 256);
        capture.finish();
    }
    trace::TraceWorkload replay(path, mode);
    isa::MicroOp buf[64];
    for (auto _ : state)
        benchmark::DoNotOptimize(replay.nextBlock(buf, 64));
    state.SetItemsProcessed(int64_t(state.iterations()) * 64);
    std::remove(path);
}

} // anonymous namespace

/** Trace replay throughput (micro-ops/s) through the batched
 *  nextBlock path in the default (mmap, zero-copy) mode; the
 *  acceptance bars are >= synthetic generation
 *  (BM_WorkloadGeneration items/s) and >= the streaming backend
 *  (BM_TraceReplayStream). */
void
BM_TraceReplay(benchmark::State &state)
{
    traceReplayBody(state, trace::ReadMode::Auto);
}
BENCHMARK(BM_TraceReplay);

/** Same replay through the streaming (fread + copy) backend — the
 *  A/B partner that keeps the mmap path honest. */
void
BM_TraceReplayStream(benchmark::State &state)
{
    traceReplayBody(state, trace::ReadMode::Streaming);
}
BENCHMARK(BM_TraceReplayStream);

/** Steady-state front-end pull: a TraceWindow walked sequentially,
 *  exercising the batched refill (one virtual call per RefillBatch
 *  micro-ops instead of one per op). */
void
BM_FetchBatched(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    wload::TraceWindow window(*wl);
    uint64_t seq = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(window.op(seq));
        ++seq;
        if ((seq & 1023) == 0)
            window.release(seq);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FetchBatched);

void
BM_OooCoreSimThroughput(benchmark::State &state)
{
    auto wl = wload::makeWorkload("gzip");
    core::CoreParams params;
    core::OooCore core(params, *wl, mem::MemConfig::mem400());
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_OooCoreSimThroughput)->Unit(benchmark::kMillisecond);

void
BM_DkipCoreSimThroughput(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    dkip::DkipCore core(dkip::DkipParams::dkip2048(), *wl,
                        mem::MemConfig::mem400());
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_DkipCoreSimThroughput)->Unit(benchmark::kMillisecond);

/** The acceptance-gate run: a fresh DkipCore simulating the 100k
 *  instructions a standard measured region commits. */
void
BM_DkipCore100kRun(benchmark::State &state)
{
    for (auto _ : state) {
        auto res = sim::Simulator::run(
            sim::MachineConfig::dkip2048(), "swim",
            mem::MemConfig::mem400(), sim::RunConfig());
        benchmark::DoNotOptimize(res.ipc);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 120000);
}
BENCHMARK(BM_DkipCore100kRun)->Unit(benchmark::kMillisecond);

/** Restore of a D-KIP-2048/mcf checkpoint taken Arg ops into the run
 *  (an early and a late image). The restoring Session has restored
 *  the image once before timing starts, as a bisect's second restore
 *  would find it, so its workload's snapshot index covers the image:
 *  the cost should not depend on Arg. */
void
BM_SessionRestore(benchmark::State &state)
{
    sim::RunConfig rc;
    rc.warmupInsts = 10000;
    rc.measureInsts = 2000000;
    const auto machine = sim::MachineConfig::dkip2048();
    sim::Session live(machine, "mcf", mem::MemConfig::mem400(), rc);
    live.warmup();
    live.runFor(uint64_t(state.range(0)) - rc.warmupInsts);
    const ckpt::Checkpoint image = live.checkpoint();

    sim::Session replay(machine, "mcf", mem::MemConfig::mem400(), rc);
    replay.restore(image);
    for (auto _ : state)
        replay.restore(image);
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SessionRestore)
    ->Arg(60000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

/** Suite sweep through the SweepEngine at an explicit thread count
 *  (Arg). Compare Arg=1 against Arg=4 for the parallel speedup. */
void
BM_SweepEngineSuite(benchmark::State &state)
{
    sim::SweepEngine engine(unsigned(state.range(0)));
    auto suite = sim::fpSuite();
    for (auto _ : state) {
        auto results = engine.runSuite(
            sim::MachineConfig::dkip2048(), suite,
            mem::MemConfig::mem400(), sim::RunConfig::sweep());
        benchmark::DoNotOptimize(results.front().ipc);
    }
}
BENCHMARK(BM_SweepEngineSuite)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
