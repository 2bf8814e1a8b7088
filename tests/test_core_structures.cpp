/**
 * @file
 * Unit tests for the core building blocks: scoreboard, functional
 * unit pool, issue queue (both policies) and LSQ, driven through
 * arena-allocated instructions, and the LSQ's rejection of a
 * checkpoint that does not fit it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/ckpt/serial.hh"
#include "src/core/fu_pool.hh"
#include "src/core/inst_arena.hh"
#include "src/core/issue_queue.hh"
#include "src/core/lsq.hh"
#include "src/core/scoreboard.hh"

using namespace kilo;
using namespace kilo::core;

namespace
{

/** Per-test arena plus instruction builders. */
struct Arena
{
    InstArena arena;

    InstRef
    inst(uint64_t seq, isa::MicroOp op = isa::makeAlu(1, 2, 3))
    {
        InstRef ref = arena.alloc();
        DynInst &i = arena.get(ref);
        i.op = op;
        i.seq = seq;
        return ref;
    }

    InstRef
    loadAt(uint64_t seq, uint64_t addr)
    {
        return inst(seq, isa::makeLoad(1, 2, addr));
    }

    InstRef
    storeAt(uint64_t seq, uint64_t addr)
    {
        return inst(seq, isa::makeStore(2, 3, addr));
    }

    DynInst &operator[](InstRef ref) { return arena.get(ref); }

    DynInstCold &cold(InstRef ref) { return arena.cold(ref); }
};

} // anonymous namespace

// ------------------------------------------------------ Scoreboard

TEST(Scoreboard, InitiallyReady)
{
    Scoreboard sb;
    for (int r = 0; r < isa::NumRegs; ++r) {
        EXPECT_FALSE(sb.get(int16_t(r)).producer);
        EXPECT_EQ(sb.get(int16_t(r)).readyCycle, 0u);
    }
}

TEST(Scoreboard, DefineInstallsProducer)
{
    Arena a;
    Scoreboard sb;
    auto i = a.inst(1);
    sb.define(a[i], a.cold(i));
    EXPECT_EQ(sb.get(1).producer, i);
}

TEST(Scoreboard, CompleteReplacesWithReadyCycle)
{
    Arena a;
    Scoreboard sb;
    auto i = a.inst(1);
    sb.define(a[i], a.cold(i));
    a[i].completed = true;
    a.cold(i).completeCycle = 55;
    sb.complete(a[i], a.cold(i));
    EXPECT_FALSE(sb.get(1).producer);
    EXPECT_EQ(sb.get(1).readyCycle, 55u);
}

TEST(Scoreboard, CompleteOfStaleProducerIgnored)
{
    Arena a;
    Scoreboard sb;
    auto older = a.inst(1);
    auto newer = a.inst(2);
    sb.define(a[older], a.cold(older));
    sb.define(a[newer], a.cold(newer));
    a[older].completed = true;
    a.cold(older).completeCycle = 10;
    sb.complete(a[older], a.cold(older));
    EXPECT_EQ(sb.get(1).producer, newer);
}

TEST(Scoreboard, RestoreUndoesDefine)
{
    Arena ar;
    Scoreboard sb;
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    sb.define(ar[a], ar.cold(a));
    sb.define(ar[b], ar.cold(b));
    sb.restore(ar[b], ar.cold(b));
    EXPECT_EQ(sb.get(1).producer, a);
    sb.restore(ar[a], ar.cold(a));
    EXPECT_FALSE(sb.get(1).producer);
}

TEST(Scoreboard, RestoreAfterCompletionUsesDefinerSeq)
{
    Arena ar;
    Scoreboard sb;
    auto a = ar.inst(1);
    sb.define(ar[a], ar.cold(a));
    ar[a].completed = true;
    ar.cold(a).completeCycle = 9;
    sb.complete(ar[a], ar.cold(a)); // producer null, readyCycle 9
    sb.restore(ar[a], ar.cold(a));  // still the visible definer -> restored
    EXPECT_EQ(sb.get(1).readyCycle, 0u);
}

TEST(Scoreboard, ClearResets)
{
    Arena a;
    Scoreboard sb;
    { auto i = a.inst(1); sb.define(a[i], a.cold(i)); }
    sb.clear();
    EXPECT_FALSE(sb.get(1).producer);
}

// ---------------------------------------------------------- FuPool

TEST(FuPool, CacheProcessorCounts)
{
    FuConfig cfg = FuConfig::cacheProcessor();
    EXPECT_EQ(cfg.intAlu, 4);
    EXPECT_EQ(cfg.intMul, 1);
    EXPECT_EQ(cfg.fpAdd, 4);
    EXPECT_EQ(cfg.fpMulDiv, 1);
}

TEST(FuPool, AluBandwidthPerCycle)
{
    FuPool pool(FuConfig::cacheProcessor());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryAcquire(isa::OpClass::IntAlu, 10, 1));
    EXPECT_FALSE(pool.tryAcquire(isa::OpClass::IntAlu, 10, 1));
    // Next cycle the slots are free again (pipelined).
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::IntAlu, 11, 1));
}

TEST(FuPool, BranchesShareAlus)
{
    FuPool pool(FuConfig::cacheProcessor());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryAcquire(isa::OpClass::Branch, 0, 1));
    EXPECT_FALSE(pool.tryAcquire(isa::OpClass::IntAlu, 0, 1));
}

TEST(FuPool, FpDivUnpipelined)
{
    FuPool pool(FuConfig::cacheProcessor());
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::FpDiv, 0, 12));
    // The single FP mul/div unit is busy for the whole divide.
    EXPECT_FALSE(pool.tryAcquire(isa::OpClass::FpMul, 5, 4));
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::FpMul, 12, 4));
}

TEST(FuPool, FpMulPipelined)
{
    FuPool pool(FuConfig::cacheProcessor());
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::FpMul, 0, 4));
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::FpMul, 1, 4));
}

TEST(FuPool, MemOpsNeedNoUnit)
{
    FuPool pool(FuConfig::intMemProcessor());
    EXPECT_FALSE(FuPool::needsUnit(isa::OpClass::Load));
    EXPECT_FALSE(FuPool::needsUnit(isa::OpClass::Store));
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::Load, 0, 400));
}

TEST(FuPool, MissingUnitTypeRejects)
{
    FuPool pool(FuConfig::intMemProcessor()); // no FP units
    EXPECT_FALSE(pool.tryAcquire(isa::OpClass::FpAdd, 0, 2));
}

TEST(FuPool, FpMpHasAddressAlu)
{
    FuPool pool(FuConfig::fpMemProcessor());
    EXPECT_TRUE(pool.tryAcquire(isa::OpClass::IntAlu, 0, 1));
    EXPECT_FALSE(pool.tryAcquire(isa::OpClass::IntMul, 0, 3));
}

// ------------------------------------------------------ IssueQueue

TEST(IssueQueue, OooSelectsOldestReady)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    auto c = ar.inst(3);
    ar[b].readyFlag = true;
    ar[c].readyFlag = true;
    q.insert(a); // not ready
    q.insert(b);
    q.insert(c);
    EXPECT_EQ(q.numReady(), 2u);
    EXPECT_EQ(q.popReady(0), b); // oldest ready, skips a
}

TEST(IssueQueue, OooWakeupMakesSelectable)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    q.insert(a);
    EXPECT_FALSE(q.popReady(0));
    ar[a].readyFlag = true;
    q.markReady(a);
    EXPECT_EQ(q.popReady(0), a);
}

TEST(IssueQueue, InOrderHeadOnly)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::InOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    ar[b].readyFlag = true;
    q.insert(a); // head, not ready
    q.insert(b); // ready but behind
    q.beginCycle();
    EXPECT_FALSE(q.popReady(0)); // head blocks
}

TEST(IssueQueue, InOrderIssuesContiguousPrefix)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::InOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    ar[a].readyFlag = true;
    ar[b].readyFlag = true;
    q.insert(a);
    q.insert(b);
    q.beginCycle();
    auto first = q.popReady(0);
    EXPECT_EQ(first, a);
    ar[first].issued = true;
    q.removeIssued(first);
    auto second = q.popReady(0);
    EXPECT_EQ(second, b);
}

TEST(IssueQueue, InOrderStructuralHazardStallsCycle)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::InOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    ar[a].readyFlag = true;
    q.insert(a);
    q.beginCycle();
    EXPECT_EQ(q.popReady(0), a);
    q.requeue(a); // e.g. no memory port
    EXPECT_FALSE(q.popReady(0));
    q.beginCycle(); // next cycle retries
    EXPECT_EQ(q.popReady(1), a);
}

TEST(IssueQueue, OooRequeueRetriesNextCycle)
{
    Arena ar;
    IssueQueue q("q", 8, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    ar[a].readyFlag = true;
    q.insert(a);
    EXPECT_EQ(q.popReady(0), a);
    q.requeue(a);
    EXPECT_FALSE(q.popReady(0)); // deferred this cycle
    q.beginCycle();
    EXPECT_EQ(q.popReady(1), a);
}

TEST(IssueQueue, CapacityAndFull)
{
    Arena ar;
    IssueQueue q("q", 2, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    q.insert(ar.inst(1));
    q.insert(ar.inst(2));
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), 2u);
}

TEST(IssueQueue, EraseFreesSlotWithoutIssue)
{
    Arena ar;
    IssueQueue q("q", 2, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    q.insert(a);
    q.erase(a);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(ar[a].iqId, -1);
}

TEST(IssueQueue, SquashRemovesYoungest)
{
    Arena ar;
    IssueQueue q("q", 4, SchedPolicy::InOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    q.insert(a);
    q.insert(b);
    ar[b].squashed = true;
    q.notifySquashed(b);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.debugFront(), a);
}

TEST(IssueQueue, ReadyCountConsistentThroughLifecycle)
{
    Arena ar;
    IssueQueue q("q", 4, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    ar[a].readyFlag = true;
    q.insert(a);
    EXPECT_EQ(q.numReady(), 1u);
    auto got = q.popReady(0);
    ar[got].issued = true;
    q.removeIssued(got);
    EXPECT_EQ(q.numReady(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(IssueQueue, DroppedNotReadyReturnsViaWakeup)
{
    Arena ar;
    IssueQueue q("q", 4, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    ar[a].readyFlag = true;
    q.insert(a);
    auto got = q.popReady(0);
    ar[got].readyFlag = false; // LSQ blocked it on a store
    q.droppedNotReady(got);
    EXPECT_EQ(q.numReady(), 0u);
    ar[got].readyFlag = true;
    q.markReady(got);
    EXPECT_EQ(q.popReady(0), got);
}

TEST(IssueQueue, StaleHeapEntrySkippedAfterRecycle)
{
    Arena ar;
    IssueQueue q("q", 4, SchedPolicy::OutOfOrder, ar.arena);
    q.assignId(0);
    auto a = ar.inst(1);
    ar[a].readyFlag = true;
    q.insert(a);
    // Squash-and-recycle while the ready heap still holds the handle.
    ar[a].squashed = true;
    q.notifySquashed(a);
    ar.arena.free(a);
    EXPECT_FALSE(q.popReady(0)); // stale entry is filtered, not used
}

// ------------------------------------------------------------- LSQ

TEST(Lsq, NoConflictGoesToMemory)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto ld = ar.loadAt(5, 0x100);
    lsq.insert(ld);
    EXPECT_EQ(lsq.checkLoad(ar[ld]).kind, LoadCheck::Kind::Memory);
}

TEST(Lsq, BlockedOnUnexecutedOlderStore)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto st = ar.storeAt(1, 0x100);
    auto ld = ar.loadAt(2, 0x100);
    lsq.insert(st);
    lsq.insert(ld);
    auto check = lsq.checkLoad(ar[ld]);
    EXPECT_EQ(check.kind, LoadCheck::Kind::Blocked);
    EXPECT_EQ(check.store, st);
}

TEST(Lsq, ForwardsFromExecutedStore)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto st = ar.storeAt(1, 0x100);
    auto ld = ar.loadAt(2, 0x100);
    lsq.insert(st);
    lsq.insert(ld);
    ar[st].issued = true;
    EXPECT_EQ(lsq.checkLoad(ar[ld]).kind, LoadCheck::Kind::Forward);
}

TEST(Lsq, YoungerStoreDoesNotConflict)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto ld = ar.loadAt(1, 0x100);
    auto st = ar.storeAt(2, 0x100);
    lsq.insert(ld);
    lsq.insert(st);
    EXPECT_EQ(lsq.checkLoad(ar[ld]).kind, LoadCheck::Kind::Memory);
}

TEST(Lsq, YoungestMatchingStoreWins)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto st1 = ar.storeAt(1, 0x100);
    auto st2 = ar.storeAt(2, 0x100);
    auto ld = ar.loadAt(3, 0x100);
    lsq.insert(st1);
    lsq.insert(st2);
    lsq.insert(ld);
    EXPECT_EQ(lsq.checkLoad(ar[ld]).store, st2);
}

TEST(Lsq, DifferentAddressNoConflict)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto st = ar.storeAt(1, 0x100);
    auto ld = ar.loadAt(2, 0x108);
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_EQ(lsq.checkLoad(ar[ld]).kind, LoadCheck::Kind::Memory);
}

TEST(Lsq, RetireCompletedFreesHead)
{
    Arena ar;
    Lsq lsq(2, ar.arena);
    auto a = ar.loadAt(1, 0x10);
    auto b = ar.loadAt(2, 0x20);
    lsq.insert(a);
    lsq.insert(b);
    EXPECT_TRUE(lsq.full());
    ar[a].completed = true;
    lsq.retireCompleted();
    EXPECT_EQ(lsq.size(), 1u);
    EXPECT_FALSE(ar[a].inLsq);
    EXPECT_TRUE(ar[b].inLsq);
}

TEST(Lsq, HeadBlocksRetirement)
{
    Arena ar;
    Lsq lsq(4, ar.arena);
    auto a = ar.loadAt(1, 0x10);
    auto b = ar.loadAt(2, 0x20);
    lsq.insert(a);
    lsq.insert(b);
    ar[b].completed = true;
    lsq.retireCompleted();
    EXPECT_EQ(lsq.size(), 2u); // head incomplete keeps both
}

TEST(Lsq, SquashRemovesStoreFromIndex)
{
    Arena ar;
    Lsq lsq(8, ar.arena);
    auto st = ar.storeAt(1, 0x100);
    lsq.insert(st);
    lsq.notifySquashed(st);
    auto ld = ar.loadAt(2, 0x100);
    lsq.insert(ld);
    EXPECT_EQ(lsq.checkLoad(ar[ld]).kind, LoadCheck::Kind::Memory);
}

TEST(Lsq, RetireRecyclesCommittedEntry)
{
    Arena ar;
    Lsq lsq(4, ar.arena);
    auto a = ar.loadAt(1, 0x10);
    lsq.insert(a);
    // Commit reached the instruction while it still held its entry:
    // the recycle defers to the LSQ release.
    ar[a].completed = true;
    ar[a].retired = true;
    uint64_t frees = ar.arena.totalFrees();
    lsq.retireCompleted();
    EXPECT_EQ(ar.arena.totalFrees(), frees + 1);
    EXPECT_FALSE(ar.arena.isLive(a));
}

TEST(Lsq, ForwardCounter)
{
    Arena ar;
    Lsq lsq(4, ar.arena);
    EXPECT_EQ(lsq.forwards(), 0u);
    lsq.countForward();
    EXPECT_EQ(lsq.forwards(), 1u);
}

TEST(Lsq, CheckpointLargerThanCapacityRejected)
{
    Arena ar;
    Lsq big(8, ar.arena);
    for (uint64_t seq = 1; seq <= 3; ++seq)
        big.insert(ar.loadAt(seq, 0x100 * seq));
    ckpt::Sink image;
    big.save(image);

    Lsq small(2, ar.arena);
    ckpt::Source src(image.data());
    EXPECT_THROW(small.load(src), ckpt::CheckpointError);
}

TEST(Lsq, CheckpointWithWrongBucketCountRejected)
{
    Arena ar;
    ckpt::Sink image;
    image.podVector(std::vector<InstRef>{});  // entries
    image.podVector(std::vector<InstRef>(3)); // store-index buckets
    image.scalar(uint64_t(0));                // forwards
    Lsq lsq(8, ar.arena);
    ckpt::Source src(image.data());
    EXPECT_THROW(lsq.load(src), ckpt::CheckpointError);
}
