/**
 * @file
 * Unit tests for the utility layer: ring deque, bit vector,
 * event wheel, histogram, free list, RNG and the number parsers.
 */

#include <gtest/gtest.h>

#include <optional>

#include "src/ckpt/serial.hh"
#include "src/util/bit_vector.hh"
#include "src/util/event_wheel.hh"
#include "src/util/free_list.hh"
#include "src/util/histogram.hh"
#include "src/util/parse.hh"
#include "src/util/ring_deque.hh"
#include "src/util/rng.hh"

using namespace kilo;

// ----------------------------------------------------------- parseU64

TEST(ParseU64, WholeStringOrNothing)
{
    struct Case
    {
        const char *text;
        int base;
        std::optional<uint64_t> want;
    };
    const Case cases[] = {
        // Rejected: what bare strtoull accepts, truncates or wraps.
        {"", 10, std::nullopt},
        {"25k", 10, std::nullopt},
        {"1OOO", 10, std::nullopt},  // letter O, not zero
        {"-1", 10, std::nullopt},
        {"+5", 10, std::nullopt},
        {" 5", 10, std::nullopt},
        {"5 ", 10, std::nullopt},
        {"18446744073709551616", 10, std::nullopt},  // 2^64
        {"0x10", 10, std::nullopt},
        {"0x", 0, std::nullopt},
        {"fg", 16, std::nullopt},
        // Accepted: decimal, and hex where the flag takes hex.
        {"0", 10, 0},
        {"25000", 10, 25000},
        {"007", 10, 7},
        {"18446744073709551615", 10, UINT64_MAX},
        {"0x10", 0, 16},
        {"25000", 0, 25000},
        {"ff", 16, 255},
        {"0xFF", 16, 255},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(util::parseU64(c.text, c.base), c.want)
            << "'" << c.text << "' base " << c.base;
    }
}

TEST(ParseU64Death, BadFlagValueExitsWithUsageStatus)
{
    EXPECT_EXIT(util::parseFlagU64("--flip-cycle", "25k"),
                ::testing::ExitedWithCode(2),
                "--flip-cycle needs an unsigned integer");
    EXPECT_EXIT(util::parseFlagU64("--orchestrate", "4294967296", 10,
                                   UINT32_MAX),
                ::testing::ExitedWithCode(2), "up to 4294967295");
    EXPECT_EQ(util::parseFlagU64("--ops", "1000"), 1000u);
}

// ----------------------------------------------------------- parseF64

TEST(ParseF64, WholeStringFiniteOrNothing)
{
    struct Case
    {
        const char *text;
        std::optional<double> want;
    };
    const Case cases[] = {
        // Rejected: what bare strtod reads as 0, truncates or reads
        // as a non-finite value.
        {"", std::nullopt},
        {"abc", std::nullopt},
        {"2.0x", std::nullopt},
        {"2%", std::nullopt},
        {" 2", std::nullopt},
        {"2 ", std::nullopt},
        {"inf", std::nullopt},
        {"-inf", std::nullopt},
        {"nan", std::nullopt},
        {"1e999", std::nullopt},
        // Accepted.
        {"0", 0.0},
        {"2", 2.0},
        {"2.5", 2.5},
        {"-0.25", -0.25},
        {"+1.5", 1.5},
        {"1e-3", 1e-3},
        {".5", 0.5},
    };
    for (const Case &c : cases)
        EXPECT_EQ(util::parseF64(c.text), c.want) << "'" << c.text << "'";
}

TEST(ParseF64Death, BadFlagValueExitsWithUsageStatus)
{
    EXPECT_EXIT(util::parseFlagF64("--check-max-err", "abc"),
                ::testing::ExitedWithCode(2),
                "--check-max-err needs a finite number, got 'abc'");
    EXPECT_EXIT(util::parseFlagF64("--max-regress", ""),
                ::testing::ExitedWithCode(2), "--max-regress");
    EXPECT_EXIT(util::parseFlagF64("--check-min-speedup", "nan"),
                ::testing::ExitedWithCode(2), "--check-min-speedup");
    EXPECT_EQ(util::parseFlagF64("--check-max-err", "2.0"), 2.0);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.range(17), 17u);
}

TEST(Rng, RangeZeroIsZero)
{
    Rng r(7);
    EXPECT_EQ(r.range(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng r(5);
    uint64_t first = r.next();
    r.next();
    r.seed(5);
    EXPECT_EQ(r.next(), first);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

// -------------------------------------------------------- RingDeque

TEST(RingDeque, StartsEmptyWithPowerOfTwoCapacity)
{
    RingDeque<int> rd(3);
    EXPECT_TRUE(rd.empty());
    EXPECT_EQ(rd.size(), 0u);
    EXPECT_EQ(rd.capacity(), 4u);
}

TEST(RingDeque, FifoOrder)
{
    RingDeque<int> rd(4);
    rd.push_back(1);
    rd.push_back(2);
    rd.push_back(3);
    for (int want : {1, 2, 3}) {
        EXPECT_EQ(rd.front(), want);
        rd.pop_front();
    }
    EXPECT_TRUE(rd.empty());
}

TEST(RingDeque, WrapAroundKeepsCapacity)
{
    RingDeque<int> rd(4);
    for (int round = 0; round < 10; ++round) {
        rd.push_back(round);
        rd.push_back(round + 100);
        EXPECT_EQ(rd.front(), round);
        rd.pop_front();
        EXPECT_EQ(rd.front(), round + 100);
        rd.pop_front();
    }
    EXPECT_TRUE(rd.empty());
    EXPECT_EQ(rd.capacity(), 4u);
}

TEST(RingDeque, PopBackRemovesYoungest)
{
    RingDeque<int> rd(4);
    rd.push_back(1);
    rd.push_back(2);
    rd.push_back(3);
    rd.pop_back();
    EXPECT_EQ(rd.size(), 2u);
    EXPECT_EQ(rd.back(), 2);
    EXPECT_EQ(rd.front(), 1);
}

TEST(RingDeque, PositionalAccessAcrossTheSeam)
{
    RingDeque<int> rd(4);
    for (int v : {10, 20, 30, 40})
        rd.push_back(v);
    rd.pop_front();
    rd.pop_front();
    rd.push_back(50);
    rd.push_back(60); // stored at ring slots 0 and 1
    EXPECT_EQ(rd.capacity(), 4u);
    const int want[] = {30, 40, 50, 60};
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rd[i], want[i]) << "position " << i;
}

TEST(RingDeque, ClearEmpties)
{
    RingDeque<int> rd(4);
    rd.push_back(1);
    rd.push_back(2);
    rd.clear();
    EXPECT_TRUE(rd.empty());
    rd.push_back(9);
    EXPECT_EQ(rd.front(), 9);
}

TEST(RingDeque, GrowsPastInitialCapacityInOrder)
{
    // Start the head mid-ring so the contents wrap when the ring
    // doubles: growth must relinearise them oldest-first.
    RingDeque<int> rd(4);
    rd.push_back(-1);
    rd.push_back(-2);
    rd.pop_front();
    rd.pop_front();
    for (int v = 0; v < 11; ++v)
        rd.push_back(v);
    EXPECT_EQ(rd.capacity(), 16u);
    ASSERT_EQ(rd.size(), 11u);
    for (size_t i = 0; i < 11; ++i)
        EXPECT_EQ(rd[i], int(i)) << "position " << i;
    EXPECT_EQ(rd.back(), 10);
}

TEST(RingDeque, SerializesHeadFirstAsAPodVector)
{
    // The image is the logical contents, oldest first, whatever the
    // ring layout: the ROB and LLIB checkpoint bytes depend on it.
    RingDeque<uint32_t> rd(4);
    for (uint32_t v : {7u, 8u, 9u, 10u})
        rd.push_back(v);
    rd.pop_front();
    rd.push_back(11); // wraps to ring slot 0
    ckpt::Sink got;
    rd.save(got);
    ckpt::Sink want;
    want.podVector(std::vector<uint32_t>{8, 9, 10, 11});
    EXPECT_EQ(got.data(), want.data());

    RingDeque<uint32_t> back(2);
    ckpt::Source src(got.data());
    back.load(src);
    ASSERT_EQ(back.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(back[i], rd[i]);
}

TEST(RingDequeDeath, UnderflowPanics)
{
    RingDeque<int> rd(1);
    EXPECT_DEATH(rd.pop_front(), "empty");
    EXPECT_DEATH(rd.pop_back(), "empty");
    EXPECT_DEATH((void)rd.front(), "empty");
}

// ------------------------------------------------------- BitVector

TEST(BitVector, StartsClear)
{
    BitVector bv(100);
    EXPECT_EQ(bv.popcount(), 0u);
    EXPECT_TRUE(bv.none());
    for (size_t i = 0; i < 100; ++i)
        EXPECT_FALSE(bv.test(i));
}

TEST(BitVector, SetAndTest)
{
    BitVector bv(64);
    bv.set(0);
    bv.set(63);
    bv.set(31);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(31));
    EXPECT_FALSE(bv.test(32));
    EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVector, ClearBit)
{
    BitVector bv(10);
    bv.set(5);
    bv.clear(5);
    EXPECT_FALSE(bv.test(5));
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, ClearAll)
{
    BitVector bv(130);
    for (size_t i = 0; i < 130; i += 7)
        bv.set(i);
    bv.clearAll();
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, CrossWordBoundary)
{
    BitVector bv(130);
    bv.set(64);
    bv.set(128);
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(128));
    EXPECT_EQ(bv.popcount(), 2u);
}

TEST(BitVector, CopyIsIndependent)
{
    BitVector a(16);
    a.set(3);
    BitVector b = a;
    b.set(4);
    EXPECT_FALSE(a.test(4));
    EXPECT_TRUE(b.test(3));
}

TEST(BitVectorDeath, OutOfRangePanics)
{
    BitVector bv(8);
    EXPECT_DEATH(bv.set(8), "range");
}

// ------------------------------------------------------ EventWheel

TEST(EventWheel, PopsInCycleOrder)
{
    EventWheel<int> ew;
    ew.schedule(10, 1);
    ew.schedule(5, 2);
    ew.schedule(10, 3);
    EXPECT_EQ(ew.size(), 3u);
    EXPECT_EQ(ew.nextCycle(), 5u);

    std::vector<int> out;
    EXPECT_EQ(ew.popDue(5, out), 1u);
    EXPECT_EQ(out, std::vector<int>({2}));

    out.clear();
    EXPECT_EQ(ew.popDue(10, out), 2u);
    EXPECT_EQ(out, std::vector<int>({1, 3}));
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, PopDueNothingEarly)
{
    EventWheel<int> ew;
    ew.schedule(100, 1);
    std::vector<int> out;
    EXPECT_EQ(ew.popDue(99, out), 0u);
    EXPECT_EQ(ew.size(), 1u);
}

TEST(EventWheel, PopDueSweepsPast)
{
    EventWheel<int> ew;
    ew.schedule(3, 1);
    ew.schedule(7, 2);
    std::vector<int> out;
    EXPECT_EQ(ew.popDue(50, out), 2u);
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, ClearDropsAll)
{
    EventWheel<int> ew;
    ew.schedule(1, 1);
    ew.schedule(2, 2);
    ew.clear();
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, PopBelowFrontierIsNoop)
{
    EventWheel<int> ew;
    ew.schedule(20, 1);
    std::vector<int> out;
    ew.popDue(10, out); // frontier now 11
    EXPECT_TRUE(out.empty());
    // A pop below the frontier must not deliver future events early.
    EXPECT_EQ(ew.popDue(5, out), 0u);
    EXPECT_EQ(ew.size(), 1u);
    EXPECT_EQ(ew.nextCycle(), 20u);
}

TEST(EventWheel, NextCycleCorrectAfterPartialPopThenSchedule)
{
    // Regression: a schedule() arriving while the next-cycle cache
    // was invalidated (partial pop with events still pending) must
    // not mask the older pending event.
    EventWheel<int> ew;
    ew.schedule(100, 1);
    ew.schedule(110, 2);
    std::vector<int> out;
    ew.popDue(100, out); // pops 1, leaves 2@110 pending
    ew.schedule(600, 3);
    EXPECT_EQ(ew.nextCycle(), 110u);
    out.clear();
    ew.popDue(110, out);
    EXPECT_EQ(out, std::vector<int>({2}));
    EXPECT_EQ(ew.nextCycle(), 600u);
}

TEST(EventWheel, SkipToMatchesPoppingEveryCycle)
{
    // An idle skip calls skipTo() where a ticked run pops each cycle;
    // both must leave the same wheel, overflow migration included,
    // down to the serialized bytes.
    auto build = [] {
        EventWheel<int> ew(16);
        ew.schedule(20, 1);
        ew.schedule(40, 2); // beyond the horizon: overflow
        ew.schedule(20, 3);
        return ew;
    };
    auto image = [](const EventWheel<int> &ew) {
        ckpt::Sink s;
        ew.save(s);
        return s.take();
    };
    EventWheel<int> ticked = build();
    std::vector<int> out;
    for (uint64_t c = 0; c < 30; ++c)
        ticked.popDue(c, out);
    EventWheel<int> skipped = build();
    skipped.popDue(0, out);
    skipped.popDue(20, out);
    skipped.skipTo(30);
    EXPECT_EQ(image(skipped), image(ticked));
    EXPECT_EQ(skipped.nextCycle(), 40u);
    // The overflow event entered the ring at the skip, so a
    // same-cycle event scheduled now pops after it, as when ticked.
    for (EventWheel<int> *ew : {&ticked, &skipped}) {
        ew->schedule(40, 4);
        out.clear();
        ew->popDue(40, out);
        EXPECT_EQ(out, std::vector<int>({2, 4}));
    }
}

// ------------------------------------------------------- Histogram

TEST(Histogram, BucketsSamples)
{
    Histogram h(10, 5);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(49);
    h.sample(50); // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
}

TEST(Histogram, FractionBelow)
{
    Histogram h(10, 10);
    for (int i = 0; i < 70; ++i)
        h.sample(5);
    for (int i = 0; i < 30; ++i)
        h.sample(95);
    EXPECT_NEAR(h.fractionBelow(50), 0.7, 0.01);
    EXPECT_NEAR(h.fractionBelow(100), 1.0, 0.01);
}

TEST(Histogram, Mean)
{
    Histogram h(10, 10);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, ResetZeroes)
{
    Histogram h(10, 4);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RenderContainsRows)
{
    Histogram h(10, 2);
    h.sample(1);
    std::string out = h.render();
    EXPECT_NE(out.find("0"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
}

// -------------------------------------------------------- FreeList

TEST(FreeList, AllocatesAllSlots)
{
    FreeList fl(4);
    EXPECT_EQ(fl.numFree(), 4u);
    std::vector<uint32_t> got;
    for (int i = 0; i < 4; ++i)
        got.push_back(fl.alloc());
    EXPECT_FALSE(fl.hasFree());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, std::vector<uint32_t>({0, 1, 2, 3}));
}

TEST(FreeList, ReleaseMakesAvailable)
{
    FreeList fl(2);
    uint32_t a = fl.alloc();
    fl.alloc();
    EXPECT_FALSE(fl.hasFree());
    fl.release(a);
    EXPECT_TRUE(fl.hasFree());
    EXPECT_EQ(fl.alloc(), a);
}

TEST(FreeList, NumAllocatedTracks)
{
    FreeList fl(3);
    uint32_t a = fl.alloc();
    EXPECT_EQ(fl.numAllocated(), 1u);
    fl.release(a);
    EXPECT_EQ(fl.numAllocated(), 0u);
}

TEST(FreeList, ResetRestoresAll)
{
    FreeList fl(3);
    fl.alloc();
    fl.alloc();
    fl.reset();
    EXPECT_EQ(fl.numFree(), 3u);
}

TEST(FreeListDeath, DoubleReleasePanics)
{
    FreeList fl(2);
    uint32_t a = fl.alloc();
    fl.release(a);
    EXPECT_DEATH(fl.release(a), "free");
}

TEST(FreeListDeath, EmptyAllocPanics)
{
    FreeList fl(1);
    fl.alloc();
    EXPECT_DEATH(fl.alloc(), "no free");
}
