/**
 * @file
 * Tests of Session checkpoint/restore: a run checkpointed at cycle C
 * and restored — into the same Session or a freshly constructed one —
 * must produce the same JSONL row as a run that never paused, across
 * all three machine models. Also covers the edge cases that make
 * checkpoints trustworthy: snapshots taken while MSHR fills are in
 * flight and while fetch is redirect-blocked, double restores, and
 * the KILOCKPT container rejecting every form of file malformation
 * with ckpt::CheckpointError.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/util/rng.hh"
#include "src/wload/trace_window.hh"

using namespace kilo;
using namespace kilo::sim;

namespace
{

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 15000;
    return rc;
}

std::vector<MachineConfig>
allMachines()
{
    return {MachineConfig::r10_64(), MachineConfig::kilo1024(),
            MachineConfig::dkip2048()};
}

/** JSONL row of a run that never pauses. */
std::string
uninterruptedRow(const MachineConfig &machine,
                 const std::string &workload, const RunConfig &rc)
{
    Session s(machine, workload, mem::MemConfig::mem400(), rc);
    s.run();
    return runResultJson(s.finish());
}

std::string
ckptPath(const std::string &tag)
{
    return ::testing::TempDir() + "kilo_ckpt_" + tag + ".kckpt";
}

} // anonymous namespace

/** The acceptance pin: checkpoint-at-C-then-restore is exact. */
TEST(Checkpoint, RestoreBitIdenticalAllMachines)
{
    for (const auto &machine : allMachines()) {
        RunConfig rc = shortRun();
        std::string golden = uninterruptedRow(machine, "mcf", rc);

        Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
        src.warmup();
        src.runFor(7000);
        ckpt::Checkpoint snap = src.checkpoint();

        // Taking the checkpoint must not perturb the source run.
        src.run();
        EXPECT_EQ(runResultJson(src.finish()), golden)
            << machine.name << " (source run after checkpoint)";

        // Restore into a freshly constructed Session and finish.
        Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
        dst.restore(snap);
        dst.run();
        EXPECT_EQ(runResultJson(dst.finish()), golden)
            << machine.name << " (fresh-session restore)";
    }
}

/** Checkpoints taken at many scattered boundaries — including ones
 *  landing inside redirect stalls and mid-drain of the decoupled
 *  structures — all restore to the same final row. */
TEST(Checkpoint, ScatteredBoundariesAllRestoreExact)
{
    for (const auto &machine : allMachines()) {
        RunConfig rc = shortRun();
        std::string golden = uninterruptedRow(machine, "mcf", rc);

        Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
        src.warmup();
        std::vector<ckpt::Checkpoint> snaps;
        while (!src.finished() && snaps.size() < 6) {
            // Odd quantum on purpose: boundaries land wherever the
            // pipeline happens to be — squash recovery, full
            // windows, fetch stalls.
            src.step(931);
            snaps.push_back(src.checkpoint());
        }
        ASSERT_GE(snaps.size(), 3u) << machine.name;

        for (size_t i = 0; i < snaps.size(); ++i) {
            Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
            dst.restore(snaps[i]);
            dst.run();
            EXPECT_EQ(runResultJson(dst.finish()), golden)
                << machine.name << " checkpoint " << i;
        }
    }
}

/** A checkpoint taken while off-chip fills are in flight restores
 *  them: the merged accesses and fill completions replay exactly. */
TEST(Checkpoint, InFlightMshrFillsSurvive)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::dkip2048();
    std::string golden = uninterruptedRow(machine, "mcf", rc);

    Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    // Step until the MSHR file holds live fills (mcf misses keep it
    // busy; the loop terminates almost immediately).
    bool found = false;
    while (!src.finished()) {
        src.step(50);
        if (src.core().memory().mshrOccupancy() > 0) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "mcf/MEM-400 never had a live fill";

    ckpt::Checkpoint snap = src.checkpoint();
    Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
    dst.restore(snap);
    EXPECT_GT(dst.core().memory().mshrOccupancy(), 0u);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
}

/** Restoring the same checkpoint twice (even after advancing) yields
 *  the same row both times. */
TEST(Checkpoint, DoubleRestoreIsIdempotent)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::kilo1024();
    std::string golden = uninterruptedRow(machine, "swim", rc);

    Session src(machine, "swim", mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(4000);
    ckpt::Checkpoint snap = src.checkpoint();

    Session dst(machine, "swim", mem::MemConfig::mem400(), rc);
    dst.restore(snap);
    dst.runFor(3000); // advance, then rewind via the same snapshot
    dst.restore(snap);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
}

/** Identity validation: a checkpoint only restores into a session of
 *  the same machine and workload. */
TEST(Checkpoint, MismatchedIdentityRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::dkip2048(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    ckpt::Checkpoint snap = src.checkpoint();

    Session other_machine(MachineConfig::r10_64(), "mcf",
                          mem::MemConfig::mem400(), rc);
    EXPECT_THROW(other_machine.restore(snap), ckpt::CheckpointError);

    Session other_workload(MachineConfig::dkip2048(), "swim",
                           mem::MemConfig::mem400(), rc);
    EXPECT_THROW(other_workload.restore(snap), ckpt::CheckpointError);
}

/** Trailing garbage after the core state is rejected, not ignored. */
TEST(Checkpoint, TrailingBytesRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    ckpt::Checkpoint snap = src.checkpoint();
    snap.bytes.push_back(0x5a);

    Session dst(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    EXPECT_THROW(dst.restore(snap), ckpt::CheckpointError);
}

/** A checkpoint whose ROB holds more entries than the restoring
 *  machine's ROB (same name, smaller configuration) is rejected with
 *  a typed error, not an abort. */
TEST(Checkpoint, RobLargerThanConfiguredRejected)
{
    RunConfig rc = shortRun();
    MachineConfig machine = MachineConfig::r10_256();
    Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    ckpt::Checkpoint snap = src.checkpoint();

    MachineConfig small = machine;
    small.cp.robSize = 2;
    Session dst(small, "mcf", mem::MemConfig::mem400(), rc);
    EXPECT_THROW(dst.restore(snap), ckpt::CheckpointError);
}

/** Images restored out of order, as kilodiff's bisect restores them,
 *  into one Session: each lands on the live state digest and audit
 *  chain, and stepping to the next boundary records the live audit
 *  record. The images span several snapshot-index strides, so every
 *  restore seeks the workload both backwards and forwards. */
TEST(Checkpoint, RestoreInAnyOrderMatchesLive)
{
    struct Case
    {
        MachineConfig machine;
        std::string workload;
    };
    for (const Case &c : {Case{MachineConfig::dkip2048(), "mcf"},
                          Case{MachineConfig::r10_64(), "swim"}}) {
        RunConfig rc;
        rc.warmupInsts = 5000;
        rc.measureInsts = 40000;
        rc.auditIntervalInsts = 4000;
        const uint64_t interval = rc.auditIntervalInsts;

        Session live(c.machine, c.workload, mem::MemConfig::mem400(),
                     rc);
        live.warmup();
        std::vector<ckpt::Checkpoint> images;
        std::vector<uint64_t> digests;
        while (!live.finished()) {
            uint64_t committed = live.measuredCommitted();
            live.runFor((committed / interval + 1) * interval -
                        committed);
            images.push_back(live.checkpoint());
            digests.push_back(live.stateDigest());
        }
        const std::vector<obs::AuditRecord> records =
            live.auditRecords();
        ASSERT_GE(images.size(), 8u) << c.machine.name;
        ASSERT_EQ(records.size(), images.size()) << c.machine.name;

        std::vector<size_t> order;
        for (size_t i = images.size(); i-- > 0;)
            order.push_back(i);
        std::vector<size_t> shuffled = order;
        Rng rng(17);
        for (size_t i = shuffled.size() - 1; i > 0; --i)
            std::swap(shuffled[i], shuffled[rng.range(i + 1)]);
        order.insert(order.end(), shuffled.begin(), shuffled.end());

        Session replay(c.machine, c.workload, mem::MemConfig::mem400(),
                       rc);
        for (size_t i : order) {
            SCOPED_TRACE(c.machine.name + " image " + std::to_string(i));
            replay.restore(images[i]);
            ASSERT_EQ(replay.stateDigest(), digests[i]);
            ASSERT_EQ(replay.auditRolling(), records[i].rolling);
            if (i + 1 == images.size())
                continue;
            replay.runFor((i + 2) * interval -
                          replay.measuredCommitted());
            ASSERT_EQ(replay.auditRecords().size(), 1u);
            const obs::AuditRecord &got = replay.auditRecords()[0];
            const obs::AuditRecord &want = records[i + 1];
            EXPECT_EQ(got.insts, want.insts);
            EXPECT_EQ(got.cycle, want.cycle);
            EXPECT_EQ(got.state, want.state);
            EXPECT_EQ(got.rolling, want.rolling);
        }
    }
}

/** A corrupt trace-window position (base, count) in an image is
 *  rejected with a typed error before any op is regenerated: a base
 *  flipped far past the fetch point, a count above the bound any
 *  live window obeys, and a window that ends before the fetch point
 *  all throw, and fast. */
TEST(Checkpoint, WindowPositionOutOfRangeRejected)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::dkip2048();
    const std::string workload = "mcf";
    Session src(machine, workload, mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(6000);
    ckpt::Checkpoint snap = src.checkpoint();

    // Payload layout: machine and workload names, two flags, four
    // u64 session fields, cycle and last-commit cycle, the core
    // statistics, then the window (base, count) and the fetch point.
    ckpt::Sink stats;
    src.core().stats().save(stats);
    const size_t at = 8 + machine.name.size() + 8 + workload.size() +
                      2 + 4 * 8 + 2 * 8 + stats.take().size();
    auto u64At = [&](const std::vector<uint8_t> &b, size_t off) {
        uint64_t v;
        std::memcpy(&v, b.data() + off, sizeof(v));
        return v;
    };
    const uint64_t base = u64At(snap.bytes, at);
    const uint64_t count = u64At(snap.bytes, at + 8);
    const uint64_t fetch = u64At(snap.bytes, at + 16);
    ASSERT_LT(base, fetch);
    ASSERT_LE(fetch - base, count);
    ASSERT_GT(base, 5000u);

    struct Patch
    {
        const char *what;
        uint64_t base;
        uint64_t count;
    };
    const Patch patches[] = {
        {"base + 2^24", base + (uint64_t(1) << 24), count},
        {"base + 2^40", base + (uint64_t(1) << 40), count},
        {"count + 2^40", base, count + (uint64_t(1) << 40)},
        {"count above MaxSpan", fetch - 1,
         wload::TraceWindow::MaxSpan + 1},
        {"window ends before fetch", base, fetch - base - 1},
    };
    Session dst(machine, workload, mem::MemConfig::mem400(), rc);
    for (const Patch &p : patches) {
        ckpt::Checkpoint bad = snap;
        std::memcpy(bad.bytes.data() + at, &p.base, 8);
        std::memcpy(bad.bytes.data() + at + 8, &p.count, 8);
        auto t0 = std::chrono::steady_clock::now();
        EXPECT_THROW(dst.restore(bad), ckpt::CheckpointError) << p.what;
        auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        EXPECT_LT(ms, 1000) << p.what;
    }
    // The untouched image still restores after the rejected ones.
    dst.restore(snap);
    EXPECT_EQ(dst.stateDigest(), src.stateDigest());
}

/** On-disk KILOCKPT round trip is exact. */
TEST(Checkpoint, FileRoundTripBitIdentical)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::dkip2048();
    std::string golden = uninterruptedRow(machine, "mcf", rc);
    std::string path = ckptPath("roundtrip");

    Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(6000);
    src.saveCheckpoint(path);

    Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
    dst.loadCheckpoint(path);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
    std::remove(path.c_str());
}

/** Every KILOCKPT malformation raises CheckpointError: wrong magic,
 *  future version, truncation, payload corruption, a corrupt length
 *  field and trailing bytes. */
TEST(Checkpoint, MalformedFilesRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    std::string path = ckptPath("malformed");
    src.saveCheckpoint(path);

    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 32u);

    auto write_variant = [&](std::vector<char> v) {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(v.data(), std::streamsize(v.size()));
    };
    auto expect_rejected = [&](const char *what) {
        EXPECT_THROW(ckpt::readCheckpointFile(path),
                     ckpt::CheckpointError)
            << what;
    };

    // Wrong magic.
    {
        std::vector<char> v = bytes;
        v[0] = 'X';
        write_variant(v);
        expect_rejected("bad magic");
    }
    // Future format version (bytes 8..11 hold the u32 version).
    {
        std::vector<char> v = bytes;
        v[8] = char(0x7f);
        write_variant(v);
        expect_rejected("version mismatch");
    }
    // Truncated header and truncated payload.
    {
        std::vector<char> v(bytes.begin(), bytes.begin() + 10);
        write_variant(v);
        expect_rejected("truncated header");
    }
    {
        std::vector<char> v(bytes.begin(), bytes.end() - 7);
        write_variant(v);
        expect_rejected("truncated payload");
    }
    // A flipped payload byte fails the checksum.
    {
        std::vector<char> v = bytes;
        v[v.size() / 2] = char(~v[v.size() / 2]);
        write_variant(v);
        expect_rejected("checksum mismatch");
    }
    // A corrupt length field (the u64 at bytes 12..19) is a typed
    // error, rejected against the file size before any allocation:
    // first its high byte, then a length one past / one short of
    // the payload, then a trailing byte the length does not cover.
    {
        std::vector<char> v = bytes;
        v[19] = char(v[19] ^ 0x80);
        write_variant(v);
        expect_rejected("length high byte");
    }
    auto with_length = [&](int64_t delta) {
        std::vector<char> v = bytes;
        uint64_t len;
        std::memcpy(&len, v.data() + 12, sizeof(len));
        len += uint64_t(delta);
        std::memcpy(v.data() + 12, &len, sizeof(len));
        return v;
    };
    write_variant(with_length(+1));
    expect_rejected("length past end of file");
    write_variant(with_length(-1));
    expect_rejected("length short of file");
    {
        std::vector<char> v = bytes;
        v.push_back(0);
        write_variant(v);
        expect_rejected("trailing byte");
    }

    std::remove(path.c_str());
}
