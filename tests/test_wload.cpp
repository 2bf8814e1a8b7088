/**
 * @file
 * Unit tests for the workload layer: trace window replay semantics,
 * generator determinism, instruction mix and region reporting; plus a
 * parameterised sweep over all 26 benchmark profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/wload/profile.hh"
#include "src/wload/synthetic.hh"
#include "src/wload/trace_window.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::wload;

// ----------------------------------------------------- TraceWindow

TEST(TraceWindow, SequentialGeneration)
{
    test::VectorWorkload wl(test::independentOps(3));
    TraceWindow tw(wl);
    EXPECT_EQ(tw.op(0).dst, 1);
    EXPECT_EQ(tw.op(1).dst, 2);
    EXPECT_EQ(tw.op(2).dst, 3);
    EXPECT_EQ(tw.op(3).dst, 1); // loops
}

TEST(TraceWindow, ReplayReturnsIdenticalOps)
{
    auto wl = makeWorkload("swim");
    TraceWindow tw(*wl);
    auto pc5 = tw.op(5).pc;
    auto addr5 = tw.op(5).effAddr;
    tw.op(100); // run ahead
    EXPECT_EQ(tw.op(5).pc, pc5);
    EXPECT_EQ(tw.op(5).effAddr, addr5);
}

TEST(TraceWindow, ReleaseAdvancesBase)
{
    test::VectorWorkload wl(test::independentOps(2));
    TraceWindow tw(wl);
    tw.op(10);
    tw.release(5);
    EXPECT_EQ(tw.base(), 5u);
    EXPECT_EQ(tw.op(5).dst, tw.op(5).dst); // still accessible
}

TEST(TraceWindowDeath, ReleasedSeqPanics)
{
    test::VectorWorkload wl(test::independentOps(2));
    TraceWindow tw(wl);
    tw.op(10);
    tw.release(5);
    EXPECT_DEATH(tw.op(4), "released");
}

TEST(TraceWindow, FrontierTracksGeneration)
{
    test::VectorWorkload wl(test::independentOps(2));
    TraceWindow tw(wl);
    EXPECT_EQ(tw.frontier(), 0u);
    tw.op(7);
    // Refills are batched: the frontier covers the requested seq and
    // lands on a RefillBatch boundary (deterministic read-ahead).
    EXPECT_GE(tw.frontier(), 8u);
    EXPECT_EQ(tw.frontier() % TraceWindow::RefillBatch, 0u);
}

// ---------------------------------------------- SyntheticWorkload

TEST(Synthetic, NextBlockMatchesNext)
{
    auto a = makeWorkload("mcf");
    auto b = makeWorkload("mcf");
    std::vector<isa::MicroOp> got(4096);
    // Pull b through nextBlock in awkward, varying chunk sizes; the
    // stream must be op-for-op the one next() produces.
    size_t filled = 0;
    size_t chunks[] = {1, 7, 64, 129, 3, 1000};
    size_t c = 0;
    while (filled < got.size()) {
        size_t n = std::min(chunks[c++ % 6], got.size() - filled);
        ASSERT_EQ(b->nextBlock(got.data() + filled, n), n);
        filled += n;
    }
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(a->next(), got[i]) << "divergence at op " << i;
}

TEST(Synthetic, Deterministic)
{
    auto a = makeWorkload("mcf");
    auto b = makeWorkload("mcf");
    for (int i = 0; i < 5000; ++i) {
        auto oa = a->next();
        auto ob = b->next();
        ASSERT_EQ(oa.pc, ob.pc);
        ASSERT_EQ(oa.effAddr, ob.effAddr);
        ASSERT_EQ(oa.taken, ob.taken);
        ASSERT_EQ(int(oa.cls), int(ob.cls));
    }
}

TEST(Synthetic, ResetRestartsStream)
{
    auto wl = makeWorkload("gcc");
    std::vector<uint64_t> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(wl->next().effAddr);
    wl->reset();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(wl->next().effAddr, first[size_t(i)]);
}

TEST(Synthetic, ChaseIsDependentChain)
{
    WorkloadProfile p;
    p.name = "chase-only";
    p.chaseLoads = 1;
    p.chaseBytes = 1 << 20;
    p.chaseChainLen = 1000000; // effectively endless
    p.indepCompute = 0;
    p.condBranches = 0;
    p.storeEvery = 0;
    p.depComputePerLoad = 0;
    SyntheticWorkload wl(p);
    // Each chase load reads and writes the same register.
    int chase_loads = 0;
    for (int i = 0; i < 200; ++i) {
        auto op = wl.next();
        if (op.isLoad()) {
            EXPECT_EQ(op.src1, op.dst);
            ++chase_loads;
        }
    }
    EXPECT_GT(chase_loads, 50);
}

TEST(Synthetic, ChaseAddressesCoverRegion)
{
    WorkloadProfile p;
    p.name = "chase-cover";
    p.chaseLoads = 1;
    p.chaseBytes = 64 * 256; // 256 nodes
    p.chaseChainLen = 1000000;
    p.indepCompute = 0;
    p.condBranches = 0;
    p.storeEvery = 0;
    p.depComputePerLoad = 0;
    SyntheticWorkload wl(p);
    std::map<uint64_t, int> seen;
    for (int i = 0; i < 256 * 6; ++i) {
        auto op = wl.next();
        if (op.isLoad())
            seen[op.effAddr]++;
    }
    // Sattolo cycle: all nodes visited equally often.
    EXPECT_EQ(seen.size(), 256u);
}

TEST(Synthetic, StreamAdvancesByStride)
{
    WorkloadProfile p;
    p.name = "stream";
    p.streamLoads = 1;
    p.numStreams = 1;
    p.streamBytes = 1 << 20;
    p.streamStride = 64;
    p.indepCompute = 0;
    p.condBranches = 0;
    p.storeEvery = 0;
    p.depComputePerLoad = 0;
    SyntheticWorkload wl(p);
    uint64_t prev = 0;
    bool first = true;
    for (int i = 0; i < 100; ++i) {
        auto op = wl.next();
        if (!op.isLoad())
            continue;
        if (!first) {
            EXPECT_EQ(op.effAddr, prev + 64);
        }
        prev = op.effAddr;
        first = false;
    }
}

TEST(Synthetic, BranchPcsStableAcrossIterations)
{
    auto wl = makeWorkload("bzip2");
    std::map<uint64_t, int> branch_pcs;
    for (int i = 0; i < 5000; ++i) {
        auto op = wl->next();
        if (op.isBranch())
            branch_pcs[op.pc]++;
    }
    // A small static branch set, each executed many times.
    EXPECT_LE(branch_pcs.size(), 8u);
    for (const auto &[pc, n] : branch_pcs)
        EXPECT_GT(n, 10) << "pc " << pc;
}

TEST(Synthetic, RegionsReportedForPrewarm)
{
    auto wl = makeWorkload("mcf");
    auto regs = wl->regions();
    EXPECT_FALSE(regs.empty());
    uint64_t total = 0;
    for (const auto &r : regs)
        total += r.bytes;
    EXPECT_GT(total, 1024u * 1024u); // mcf's chase region alone is 2MB
}

TEST(Synthetic, AtMostTwoSourcesOneDest)
{
    for (const auto &prof : allProfiles()) {
        SyntheticWorkload wl(prof);
        for (int i = 0; i < 500; ++i) {
            auto op = wl.next();
            ASSERT_LE(op.numSrcs(), 2);
            if (op.isStore() || op.isBranch()) {
                ASSERT_EQ(op.dst, isa::NoReg);
            }
        }
    }
}

// ------------------------------------------------ profile registry

TEST(Profiles, SuiteSizesMatchSpec2000)
{
    EXPECT_EQ(intProfiles().size(), 12u);
    EXPECT_EQ(fpProfiles().size(), 14u);
    EXPECT_EQ(allProfiles().size(), 26u);
}

TEST(Profiles, NamesUniqueAndLookupWorks)
{
    std::map<std::string, int> names;
    for (const auto &p : allProfiles())
        names[p.name]++;
    for (const auto &[n, c] : names)
        EXPECT_EQ(c, 1) << n;
    EXPECT_EQ(profileByName("swim").name, "swim");
    EXPECT_TRUE(profileByName("swim").fp);
    EXPECT_FALSE(profileByName("gzip").fp);
}

TEST(ProfilesDeath, UnknownNameFatal)
{
    EXPECT_DEATH(profileByName("nonexistent"), "unknown benchmark");
}

// --------------------------------------- parameterised suite sweep

class EveryBenchmark : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryBenchmark, GeneratesValidOps)
{
    auto wl = makeWorkload(GetParam());
    int branches = 0, loads = 0;
    for (int i = 0; i < 2000; ++i) {
        auto op = wl->next();
        if (op.isBranch()) {
            ++branches;
            EXPECT_NE(op.target, 0u);
        }
        if (op.isMem()) {
            EXPECT_NE(op.effAddr, 0u);
        }
        if (op.isLoad())
            ++loads;
        if (op.dst != isa::NoReg) {
            EXPECT_GE(op.dst, 0);
            EXPECT_LT(op.dst, isa::NumRegs);
        }
    }
    EXPECT_GT(branches, 50);  // every kernel has loop control
    EXPECT_GT(loads, 20);     // and memory traffic
}

TEST_P(EveryBenchmark, FpSuiteUsesFpCompute)
{
    auto prof = profileByName(GetParam());
    auto wl = makeWorkload(GetParam());
    int fp_ops = 0;
    for (int i = 0; i < 2000; ++i)
        fp_ops += isa::isFpClass(wl->next().cls);
    if (prof.fp)
        EXPECT_GT(fp_ops, 100);
    else
        EXPECT_EQ(fp_ops, 0);
}

namespace
{

/** The next @p n ops of @p wl, pulled one next() call at a time. */
std::vector<isa::MicroOp>
pullOps(Workload &wl, size_t n)
{
    std::vector<isa::MicroOp> ops(n);
    for (auto &op : ops)
        op = wl.next();
    return ops;
}

/** The next 2 x opsPerIteration() ops of @p wl must be @p ref's ops
 *  from position @p pos on. */
void
expectStreamAt(SyntheticWorkload &wl,
               const std::vector<isa::MicroOp> &ref, uint64_t pos,
               const std::string &what)
{
    size_t n = 2 * size_t(wl.opsPerIteration());
    ASSERT_LE(pos + n, ref.size()) << what;
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(wl.next(), ref[pos + i]) << what << ", op " << pos + i;
}

} // anonymous namespace

/** skip() jumps through the snapshot index; whatever the index holds
 *  and wherever the stream stands, the ops after the skip are the
 *  ops a fresh generator pulled one at a time has at that position. */
TEST_P(EveryBenchmark, SkipMatchesSequentialPull)
{
    constexpr uint64_t S = SyntheticWorkload::SnapshotStride;
    const WorkloadProfile prof = profileByName(GetParam());
    SyntheticWorkload fresh(prof);
    const std::vector<isa::MicroOp> ref = pullOps(fresh, 12 * S);

    SyntheticWorkload wl(prof);
    const uint64_t iter = uint64_t(wl.opsPerIteration());
    for (uint64_t k : {uint64_t(0), uint64_t(1), S - 1, S, S + 1,
                       5 * S + 13}) {
        wl.reset();
        wl.skip(k);
        ASSERT_NO_FATAL_FAILURE(expectStreamAt(
            wl, ref, k, "reset + skip " + std::to_string(k)));
    }

    // From mid-iteration (ops pending): a short skip that stays within
    // the pending ops, then one that jumps to an indexed cursor.
    wl.reset();
    pullOps(wl, iter / 2 + 1);
    wl.skip(1);
    uint64_t pos = iter / 2 + 2;
    ASSERT_NO_FATAL_FAILURE(
        expectStreamAt(wl, ref, pos, "mid-iteration skip 1"));
    pos += 2 * iter;
    wl.skip(3 * S + 7);
    pos += 3 * S + 7;
    ASSERT_NO_FATAL_FAILURE(
        expectStreamAt(wl, ref, pos, "mid-iteration skip"));

    // Backward: rewind to a position the stream has already passed.
    wl.reset();
    wl.skip(2 * S + 5);
    ASSERT_NO_FATAL_FAILURE(
        expectStreamAt(wl, ref, 2 * S + 5, "backward seek"));

    // Beyond the last snapshot (the index ends near 5S): jump to it,
    // generate the rest, and the cursors recorded on the way serve
    // the next seek.
    wl.reset();
    wl.skip(10 * S + 3);
    ASSERT_NO_FATAL_FAILURE(
        expectStreamAt(wl, ref, 10 * S + 3, "seek past the index"));
    wl.reset();
    wl.skip(9 * S);
    ASSERT_NO_FATAL_FAILURE(
        expectStreamAt(wl, ref, 9 * S, "seek into the new entries"));

    if (GetParam() != "mcf")
        return;
    // A stream long enough that the full index thins (every other
    // entry dropped, stride doubled); seeks before, inside and past
    // the thinned range still land exactly.
    const uint64_t far = (SyntheticWorkload::SnapshotCapacity + 8) * S;
    SyntheticWorkload longrun(prof);
    longrun.skip(far);
    SyntheticWorkload seq(prof);
    uint64_t seq_pos = 0;
    for (uint64_t target : {7 * S + 3, 600 * S + 11, far - 1,
                            far + 3 * S + 5}) {
        for (; seq_pos < target; ++seq_pos)
            seq.next();
        std::vector<isa::MicroOp> want = pullOps(seq, 2 * iter);
        seq_pos = target + 2 * iter;
        longrun.reset();
        longrun.skip(target);
        ASSERT_EQ(pullOps(longrun, 2 * iter), want)
            << "thinned index, seek to " << target;
    }
}

namespace
{

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const auto &p : allProfiles())
        names.push_back(p.name);
    return names;
}

} // anonymous namespace

INSTANTIATE_TEST_SUITE_P(Suite, EveryBenchmark,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &name_info) { return name_info.param; });
