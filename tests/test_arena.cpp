/**
 * @file
 * Tests of the instruction arena: generation-checked handles, slot
 * recycling through the commit and squash paths of a real core, and
 * the headline property — a steady-state simulation performs zero
 * heap allocations (verified through a counting global operator new).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/inst_arena.hh"
#include "src/core/ooo_core.hh"
#include "src/dkip/dkip_core.hh"
#include "src/mem/mshr.hh"
#include "src/sim/simulator.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::core;

// ------------------------------------------------- allocation hook

namespace
{

std::atomic<uint64_t> g_heapAllocs{0};

} // anonymous namespace

void *
operator new(std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// ----------------------------------------------------- handle unit

TEST(InstRef, NullByDefault)
{
    InstRef ref;
    EXPECT_FALSE(ref);
    EXPECT_FALSE(ref.valid());
    EXPECT_EQ(ref, InstRef());
}

TEST(InstRef, PacksIndexAndGeneration)
{
    InstRef ref = InstRef::make(123, 45);
    EXPECT_TRUE(ref);
    EXPECT_EQ(ref.index(), 123u);
    EXPECT_EQ(ref.gen(), 45u);
    EXPECT_NE(ref, InstRef::make(123, 46));
    EXPECT_NE(ref, InstRef::make(124, 45));
}

TEST(InstArena, AllocResetsAndSetsSelf)
{
    InstArena arena;
    InstRef ref = arena.alloc();
    DynInst &inst = arena.get(ref);
    EXPECT_EQ(inst.self, ref);
    EXPECT_FALSE(inst.completed);
    EXPECT_EQ(inst.srcNotReady, 0);
    EXPECT_EQ(inst.depHead, DynInst::NoDep);
    EXPECT_EQ(arena.live(), 1u);
}

TEST(InstArena, FreeRecyclesSlotWithBumpedGeneration)
{
    InstArena arena;
    InstRef a = arena.alloc();
    uint32_t idx = a.index();
    arena.free(a);
    EXPECT_EQ(arena.live(), 0u);

    // FIFO recycling: the freed slot comes back only after every
    // other free slot has been handed out — one generation up.
    InstRef b;
    uint32_t cap = arena.capacity();
    for (uint32_t i = 0; i < cap; ++i) {
        b = arena.alloc();
        if (b.index() == idx)
            break;
    }
    EXPECT_EQ(b.index(), idx);
    EXPECT_NE(b.gen(), a.gen());
    EXPECT_FALSE(arena.isLive(a));
    EXPECT_TRUE(arena.isLive(b));
}

TEST(InstArena, TryGetFiltersStaleHandles)
{
    InstArena arena;
    InstRef a = arena.alloc();
    EXPECT_NE(arena.tryGet(a), nullptr);
    arena.free(a);
    EXPECT_EQ(arena.tryGet(a), nullptr);
    // The slot's new tenant is invisible through the old handle
    // (FIFO: drain the pool until the slot is re-issued).
    InstRef b;
    do {
        b = arena.alloc();
    } while (b.index() != a.index());
    EXPECT_TRUE(arena.isLive(b));
    EXPECT_EQ(arena.tryGet(a), nullptr);
    EXPECT_EQ(arena.tryGet(InstRef()), nullptr);
}

TEST(InstArenaDeath, GetOnStaleHandlePanics)
{
    InstArena arena;
    InstRef a = arena.alloc();
    arena.free(a);
    EXPECT_DEATH(arena.get(a), "stale");
}

TEST(InstArena, GrowsBySlabBeyondInitialCapacity)
{
    InstArena arena(InstArena::SlabSize);
    std::vector<InstRef> refs;
    for (uint32_t i = 0; i < InstArena::SlabSize + 10; ++i)
        refs.push_back(arena.alloc());
    EXPECT_GE(arena.capacity(), InstArena::SlabSize + 10);
    EXPECT_EQ(arena.live(), InstArena::SlabSize + 10);
    // Records must not have moved: every handle still dereferences
    // to a slot carrying its own self-reference.
    for (InstRef ref : refs)
        EXPECT_EQ(arena.get(ref).self, ref);
}

// The dirty-slot test below names every field; this fails the build
// when either record grows one, so the test is revisited with it.
static_assert(sizeof(DynInst) == 64 && sizeof(DynInstCold) == 88,
              "DynInst/DynInstCold layout changed: extend "
              "RecycledSlotIsValueInitialisedInPlace");

/** A recycled slot must come back exactly as a value-initialised
 *  DynInst/DynInstCold, whatever its previous tenant left behind:
 *  alloc() constructs both halves in place, keeping only the
 *  generation (and writing the new self handle). */
TEST(InstArena, RecycledSlotIsValueInitialisedInPlace)
{
    InstArena arena;
    InstRef a = arena.alloc();
    InstRef other = arena.alloc();
    DynInst &d = arena.get(a);
    d.op = isa::makeLoad(3, 7, 0xdead40);
    d.op.src2 = 9;
    d.op.memSize = 4;
    d.seq = 11;
    d.readyCycle = 12;
    d.fetchCycle = 13;
    arena.addDependent(d, other); // depHead: freed with the slot
    d.lsqBucketNext = other;
    d.iqId = 2;
    d.dispatched = d.readyFlag = d.issued = d.completed = true;
    d.squashed = d.retired = d.inLsq = d.inRob = true;
    d.predTaken = d.mispredicted = true;
    d.longLatency = d.inLlib = d.execInMp = true;
    d.srcNotReady = 2;
    d.serviceLevel = mem::ServiceLevel::Memory;
    d.llrfBank = 3;
    d.llrfSlot = 77;
    DynInstCold &c = arena.cold(a);
    c.pc = 0x4000;
    c.target = 0x5000;
    c.dispatchCycle = 21;
    c.issueCycle = 22;
    c.completeCycle = 23;
    c.historySnapshot = 0xabcdef;
    c.producers[0] = other;
    c.producers[1] = other;
    c.prevProducer = other;
    c.prevReadyCycle = 24;
    c.prevDefinerSeq = 25;
    c.prevDefinerValid = true;

    arena.free(a);
    InstRef b; // FIFO: drain the pool until the slot comes back
    do {
        b = arena.alloc();
    } while (b.index() != a.index());

    const DynInst fresh{};
    const DynInst &r = arena.get(b);
    EXPECT_EQ(r.self, b);
    EXPECT_EQ(r.gen, b.gen());
    EXPECT_EQ(r.op.effAddr, fresh.op.effAddr);
    EXPECT_EQ(r.op.src1, fresh.op.src1);
    EXPECT_EQ(r.op.src2, fresh.op.src2);
    EXPECT_EQ(r.op.dst, fresh.op.dst);
    EXPECT_EQ(r.op.cls, fresh.op.cls);
    EXPECT_EQ(r.op.memSize, fresh.op.memSize);
    EXPECT_EQ(r.seq, fresh.seq);
    EXPECT_EQ(r.readyCycle, fresh.readyCycle);
    EXPECT_EQ(r.fetchCycle, fresh.fetchCycle);
    EXPECT_EQ(r.depHead, fresh.depHead);
    EXPECT_EQ(r.lsqBucketNext, fresh.lsqBucketNext);
    EXPECT_EQ(r.iqId, fresh.iqId);
    EXPECT_EQ(r.dispatched, fresh.dispatched);
    EXPECT_EQ(r.readyFlag, fresh.readyFlag);
    EXPECT_EQ(r.issued, fresh.issued);
    EXPECT_EQ(r.completed, fresh.completed);
    EXPECT_EQ(r.squashed, fresh.squashed);
    EXPECT_EQ(r.retired, fresh.retired);
    EXPECT_EQ(r.inLsq, fresh.inLsq);
    EXPECT_EQ(r.inRob, fresh.inRob);
    EXPECT_EQ(r.predTaken, fresh.predTaken);
    EXPECT_EQ(r.mispredicted, fresh.mispredicted);
    EXPECT_EQ(r.longLatency, fresh.longLatency);
    EXPECT_EQ(r.inLlib, fresh.inLlib);
    EXPECT_EQ(r.execInMp, fresh.execInMp);
    EXPECT_EQ(r.srcNotReady, fresh.srcNotReady);
    EXPECT_EQ(r.serviceLevel, fresh.serviceLevel);
    EXPECT_EQ(r.llrfBank, fresh.llrfBank);
    EXPECT_EQ(r.llrfSlot, fresh.llrfSlot);

    const DynInstCold cfresh{};
    const DynInstCold &rc = arena.cold(b);
    EXPECT_EQ(rc.pc, cfresh.pc);
    EXPECT_EQ(rc.target, cfresh.target);
    EXPECT_EQ(rc.dispatchCycle, cfresh.dispatchCycle);
    EXPECT_EQ(rc.issueCycle, cfresh.issueCycle);
    EXPECT_EQ(rc.completeCycle, cfresh.completeCycle);
    EXPECT_EQ(rc.historySnapshot, cfresh.historySnapshot);
    EXPECT_EQ(rc.producers[0], cfresh.producers[0]);
    EXPECT_EQ(rc.producers[1], cfresh.producers[1]);
    EXPECT_EQ(rc.prevProducer, cfresh.prevProducer);
    EXPECT_EQ(rc.prevReadyCycle, cfresh.prevReadyCycle);
    EXPECT_EQ(rc.prevDefinerSeq, cfresh.prevDefinerSeq);
    EXPECT_EQ(rc.prevDefinerValid, cfresh.prevDefinerValid);
}

// ------------------------------------------- dependent-chain pool

TEST(InstArenaDeps, ChainBuildWalkAndRelease)
{
    InstArena arena;
    InstRef prod = arena.alloc();
    InstRef a = arena.alloc();
    InstRef b = arena.alloc();
    DynInst &p = arena.get(prod);
    EXPECT_EQ(p.depHead, DynInst::NoDep);

    arena.addDependent(p, a);
    arena.addDependent(p, b);
    EXPECT_EQ(arena.depEdgesLive(), 2u);

    // LIFO chain: newest edge first.
    uint32_t n = p.depHead;
    EXPECT_EQ(arena.depNode(n).dep, b);
    n = arena.depNode(n).next;
    EXPECT_EQ(arena.depNode(n).dep, a);
    EXPECT_EQ(arena.depNode(n).next, DynInst::NoDep);

    arena.releaseDependents(p);
    EXPECT_EQ(p.depHead, DynInst::NoDep);
    EXPECT_EQ(arena.depEdgesLive(), 0u);
}

TEST(InstArenaDeps, FreeReturnsHeldChainToPool)
{
    InstArena arena;
    InstRef prod = arena.alloc();
    InstRef dep = arena.alloc();
    arena.addDependent(arena.get(prod), dep);
    EXPECT_EQ(arena.depEdgesLive(), 1u);
    // Squash path: the producer dies with its chain still recorded.
    arena.free(prod);
    EXPECT_EQ(arena.depEdgesLive(), 0u);
}

TEST(InstArenaDeps, NodesRecycleWithoutPoolGrowth)
{
    InstArena arena;
    InstRef prod = arena.alloc();
    InstRef dep = arena.alloc();
    for (int i = 0; i < 10 * int(InstArena::SlabSize); ++i) {
        arena.addDependent(arena.get(prod), dep);
        arena.releaseDependents(arena.get(prod));
    }
    EXPECT_EQ(arena.depEdgesLive(), 0u);
}

// -------------------------------------------- recycling in a core

namespace
{

/** ALU/branch/load mix that lives entirely in the L1. */
std::vector<isa::MicroOp>
cacheFriendlyLoop()
{
    std::vector<isa::MicroOp> ops;
    ops.push_back(isa::makeLoad(1, 2, 0x100));
    ops.push_back(isa::makeAlu(3, 1, isa::NoReg));
    ops.push_back(isa::makeAlu(4, 3, 1));
    ops.push_back(isa::makeStore(2, 4, 0x140));
    ops.push_back(isa::makeAlu(5, isa::NoReg, isa::NoReg));
    ops.push_back(isa::makeBranch(5, true, 0x1000));
    return ops;
}

} // anonymous namespace

TEST(InstArenaLifetime, CommitRecyclesEverySlot)
{
    test::VectorWorkload wl(cacheFriendlyLoop());
    CoreParams params;
    OooCore core(params, wl, mem::MemConfig::l1Only());
    core.run(20000);
    const InstArena &arena = core.instArena();
    // Everything fetched was either recycled or is still in flight.
    EXPECT_EQ(arena.totalAllocs() - arena.totalFrees(),
              uint64_t(arena.live()));
    // The window high-water mark, not the instruction count, bounds
    // the arena: 20k committed instructions fit in one or two slabs.
    EXPECT_LE(arena.capacity(), 2 * InstArena::SlabSize);
    EXPECT_LE(arena.live(),
              params.robSize + params.fetchBufferSize);
}

TEST(InstArenaLifetime, SquashRecyclesFullPipeline)
{
    // A mispredicting branch pattern forces regular full squashes of
    // everything younger than the branch.
    std::vector<isa::MicroOp> ops = cacheFriendlyLoop();
    ops.push_back(isa::makeBranch(4, false, 0x2000));
    test::VectorWorkload wl(ops);
    CoreParams params;
    params.predictor = pred::BpKind::AlwaysTaken; // mispredicts NT
    OooCore core(params, wl, mem::MemConfig::l1Only());
    core.run(20000);
    const InstArena &arena = core.instArena();
    EXPECT_GT(core.stats().squashed, 0u);
    EXPECT_EQ(arena.totalAllocs() - arena.totalFrees(),
              uint64_t(arena.live()));
    EXPECT_LE(arena.capacity(), 2 * InstArena::SlabSize);
}

TEST(InstArenaLifetime, DkipRecyclesThroughDecoupledPaths)
{
    // The decoupled machine exercises the LLIB/LLRF/apQ residency
    // paths and the aging-ROB deferred release.
    auto res = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                   "swim", mem::MemConfig::mem400(),
                                   sim::RunConfig::sweep());
    EXPECT_GT(res.ipc, 0.0);
}

// --------------------------------------- zero-allocation property

TEST(InstArenaLifetime, SteadyStateRunsAllocationFree)
{
    test::VectorWorkload wl(cacheFriendlyLoop());
    CoreParams params;
    OooCore core(params, wl, mem::MemConfig::l1Only());

    // Warm up: grow every pool (arena slabs, ring deques, event
    // wheel slots, ready heaps) to its high-water mark.
    core.run(30000);

    uint64_t before = g_heapAllocs.load();
    core.run(30000);
    uint64_t delta = g_heapAllocs.load() - before;
    EXPECT_EQ(delta, 0u)
        << "steady-state simulation touched the heap " << delta
        << " times";
}

TEST(InstArenaLifetime, SteadyStateSquashReplayAllocationFree)
{
    std::vector<isa::MicroOp> ops = cacheFriendlyLoop();
    ops.push_back(isa::makeBranch(4, false, 0x2000));
    test::VectorWorkload wl(ops);
    CoreParams params;
    params.predictor = pred::BpKind::AlwaysTaken;
    OooCore core(params, wl, mem::MemConfig::l1Only());

    core.run(30000);

    uint64_t before = g_heapAllocs.load();
    core.run(30000);
    EXPECT_EQ(g_heapAllocs.load() - before, 0u);
}

namespace
{

/** Loads marching through memory: every load is a fresh off-chip
 *  miss, the pattern that made the old in-flight-fill map grow (and
 *  allocate) forever. */
class StreamingMissWorkload : public wload::Workload
{
  public:
    isa::MicroOp
    next() override
    {
        ++cnt;
        isa::MicroOp op;
        if (cnt % 4 == 0) {
            op = isa::makeLoad(int16_t(1 + cnt % 3), 4, addr);
            addr += 64;
        } else {
            op = isa::makeAlu(int16_t(5 + cnt % 3), 4, isa::NoReg);
        }
        op.pc = 0x1000 + (cnt % 16) * 4;
        return op;
    }

    const std::string &name() const override { return label; }
    bool isFp() const override { return false; }

    void
    reset() override
    {
        cnt = 0;
        addr = 0x10000000;
    }

  private:
    std::string label = "stream-miss";
    uint64_t cnt = 0;
    uint64_t addr = 0x10000000;
};

} // anonymous namespace

/** The full-system property the MSHR file buys: a simulation whose
 *  memory traffic is a pure miss stream — the case where the old
 *  unordered_map tracker allocated on every miss, forever — runs its
 *  steady state without a single heap allocation, memory hierarchy
 *  included. */
TEST(InstArenaLifetime, SteadyStateMissStreamAllocationFree)
{
    StreamingMissWorkload wl;
    CoreParams params;
    OooCore core(params, wl, mem::MemConfig::mem400());

    // Warm-up past every pool's high-water mark (arena slabs, dep
    // pool, queues, wheel) — and past the MSHR file's first sweep.
    core.run(30000);

    uint64_t before = g_heapAllocs.load();
    core.run(30000);
    uint64_t delta = g_heapAllocs.load() - before;
    EXPECT_EQ(delta, 0u)
        << "steady-state miss-stream simulation touched the heap "
        << delta << " times";
    EXPECT_GT(core.memory().memFills(), 0u);
    EXPECT_LE(core.memory().mshrOccupancy(),
              core.memory().mshrCapacity());
}

/** The MSHR expiry queue is reserved at construction and compacted in
 *  place: a small file under constant set pressure (every allocation
 *  displaces, leaving a stale record behind) never reallocates it. */
TEST(InstArenaLifetime, MshrExpiryQueueAllocationFree)
{
    mem::MshrFile f(16, 100); // 2 sets x 8 ways
    uint64_t now = 0;
    auto churn = [&](int n) {
        for (int i = 0; i < n; ++i, now += 3) {
            f.lookup(uint64_t(i), now);
            f.allocate(uint64_t(i), now + 5000, now);
        }
    };
    churn(64); // fill every way with long-lived fills
    uint64_t before = g_heapAllocs.load();
    churn(10000);
    EXPECT_EQ(g_heapAllocs.load() - before, 0u);
    EXPECT_GT(f.displacements(), 1000u);
}
