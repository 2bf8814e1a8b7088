/**
 * @file
 * Tests of the exact idle-skip contract (src/core/pipeline_base.hh):
 * jumping over cycles in which nothing can happen must leave the
 * machine byte-for-byte where ticking through them would.
 *
 *   - Every registered statistic — not only the JSONL row fields — of
 *     short runs on all three machines matches a checked-in golden,
 *     which pins the per-cycle stall counters a skip has to charge.
 *   - A Session stepped in odd or tiny cycle quanta ends on the
 *     uninterrupted row and state digest; at its pauses, a Session
 *     sent there in one step agrees, and a checkpoint restores into a
 *     fresh Session that finishes on that same row.
 *   - The skip actually fires: a memory-bound run ticks only a small
 *     share of its simulated cycles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"

using namespace kilo;
using namespace kilo::sim;

namespace
{

std::vector<MachineConfig>
allMachines()
{
    return {MachineConfig::r10_64(), MachineConfig::kilo1024(),
            MachineConfig::dkip2048()};
}

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 15000;
    return rc;
}

/** Every registered stat of @p session, one "name value" line each;
 *  real values print with round-trip precision. */
std::string
registryText(const Session &session)
{
    std::ostringstream os;
    for (const auto &e : session.snapshot().entries) {
        os << e.name << ' ';
        if (e.value.real) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", e.value.d);
            os << buf;
        } else {
            os << e.value.u;
        }
        os << '\n';
    }
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // anonymous namespace

// ------------------------------------------------- full-registry golden

// Regenerate after an intentional timing change by running this test
// with KILO_REGISTRY_GOLDEN_OUT=tests/data/registry_short.golden set.
TEST(ExactSkip, RegistryMatchesGoldenForShortRuns)
{
    std::string text;
    for (const auto &machine : allMachines()) {
        for (const char *workload : {"mcf", "gcc"}) {
            RunConfig rc;
            rc.warmupInsts = 20000;
            rc.measureInsts = 60000;
            Session s(machine, workload, mem::MemConfig::mem400(), rc);
            s.run();
            text += "# " + machine.name + " " + workload + "\n";
            text += registryText(s);
        }
    }

    if (const char *out = std::getenv("KILO_REGISTRY_GOLDEN_OUT")) {
        std::ofstream(out) << text;
        GTEST_SKIP() << "golden written to " << out;
    }

    const std::string expected = readFile(
        std::string(KILO_SOURCE_DIR) + "/tests/data/registry_short.golden");
    ASSERT_FALSE(expected.empty())
        << "missing tests/data/registry_short.golden";
    if (text != expected) {
        std::istringstream got_s(text), want_s(expected);
        std::string got_line, want_line, section;
        while (std::getline(got_s, got_line) &&
               std::getline(want_s, want_line) && got_line == want_line) {
            if (got_line.rfind("# ", 0) == 0)
                section = got_line;
        }
        FAIL() << "registry diverges from golden in '" << section
               << "':\n  golden: " << want_line
               << "\n  got:    " << got_line;
    }
}

// ------------------------------------------------- stepping exactness

namespace
{

/** Final state digest and JSONL row of a finished run. */
struct Outcome
{
    std::string row;
    uint64_t digest = 0;
};

Outcome
finishOutcome(Session &s)
{
    Outcome o;
    o.digest = s.stateDigest();
    o.row = runResultJson(s.finish());
    return o;
}

} // anonymous namespace

// Odd quanta put pauses inside memory stalls, redirect stalls and
// dispatch held by a full window, where a skip has to stop exactly at
// the pause and resume as if it never had. At a sample of the pauses
// (evenly spread, so the 97-cycle quantum's thousands stay
// affordable) two more routes must agree with the stepped run: a
// Session that reaches the same cycles in one step per sample holds
// the same state digests, and the checkpoint taken at each sample
// restores into a fresh Session that finishes on the uninterrupted
// row and digest.
TEST(ExactSkip, SteppingAndRestoreExactAcrossMatrix)
{
    constexpr uint64_t MaxSamples = 4;
    struct Pause
    {
        uint64_t cycle;
        uint64_t digest;
        ckpt::Checkpoint snap;
    };
    uint64_t on_bound = 0, past_bound = 0;
    for (const auto &machine : allMachines()) {
        for (const char *workload : {"mcf", "swim", "gcc", "crafty"}) {
            const RunConfig rc = shortRun();
            auto session = [&] {
                return std::make_unique<Session>(
                    machine, workload, mem::MemConfig::mem400(), rc);
            };
            auto ref = session();
            ref->run();
            const Outcome want = finishOutcome(*ref);
            const uint64_t cycles = ref->core().cycle();

            for (uint64_t quantum : {97ull, 931ull, 131072ull}) {
                SCOPED_TRACE(machine.name + "/" + workload + " quantum " +
                             std::to_string(quantum));
                const uint64_t stride = cycles / (quantum * MaxSamples) + 1;
                auto s = session();
                s->warmup();
                std::vector<Pause> sampled;
                for (uint64_t pause = 0; !s->finished(); ++pause) {
                    const uint64_t bound = s->core().cycle() + quantum;
                    s->step(quantum);
                    if (s->finished())
                        break;
                    ++(s->core().cycle() == bound ? on_bound : past_bound);
                    if (pause % stride == 0) {
                        sampled.push_back(Pause{s->core().cycle(),
                                                s->stateDigest(),
                                                s->checkpoint()});
                    }
                }
                const Outcome got = finishOutcome(*s);
                EXPECT_EQ(got.row, want.row);
                EXPECT_EQ(got.digest, want.digest);

                auto direct = session();
                direct->warmup();
                for (const Pause &p : sampled) {
                    direct->step(p.cycle - direct->core().cycle());
                    ASSERT_EQ(direct->core().cycle(), p.cycle);
                    EXPECT_EQ(direct->stateDigest(), p.digest)
                        << "one step to cycle " << p.cycle;

                    auto restored = session();
                    restored->restore(p.snap);
                    restored->run();
                    const Outcome back = finishOutcome(*restored);
                    EXPECT_EQ(back.row, want.row)
                        << "restored at cycle " << p.cycle;
                    EXPECT_EQ(back.digest, want.digest)
                        << "restored at cycle " << p.cycle;
                }
            }
        }
    }
    // A pause lands on its cycle bound; only idleSkip()'s two
    // bug-compatible exceptions carry one past it, and they are rare.
    EXPECT_LE(past_bound * 20, on_bound)
        << past_bound << " pauses past their bound";
}

// Two- and three-cycle quanta pause one or two cycles into nearly
// every skip, so each wake source — a completion, a redirect's end, a
// dispatch deadline falling due next cycle — is met from a pause as
// well as from a skip. The deep front end (a buffer that fills long
// before its head may dispatch) makes the dispatch deadline a wake
// source the presets rarely exercise.
TEST(ExactSkip, TinyQuantaMatchUninterrupted)
{
    RunConfig rc;
    rc.warmupInsts = 2000;
    rc.measureInsts = 4000;
    std::vector<MachineConfig> machines = allMachines();
    MachineConfig deep = MachineConfig::r10_64();
    deep.name = "R10-64-deep-fe";
    deep.cp.frontEndDepth = 12;
    deep.cp.fetchBufferSize = 8;
    machines.push_back(deep);
    for (const auto &machine : machines) {
        for (const char *workload : {"mcf", "gcc"}) {
            Session ref(machine, workload, mem::MemConfig::mem400(), rc);
            ref.run();
            const Outcome want = finishOutcome(ref);
            for (uint64_t quantum : {2ull, 3ull}) {
                SCOPED_TRACE(machine.name + "/" + workload + " quantum " +
                             std::to_string(quantum));
                Session s(machine, workload, mem::MemConfig::mem400(), rc);
                while (!s.finished())
                    s.step(quantum);
                const std::string registry = registryText(s);
                const Outcome got = finishOutcome(s);
                EXPECT_EQ(got.row, want.row);
                EXPECT_EQ(got.digest, want.digest);
                EXPECT_EQ(registry, registryText(ref));
            }
        }
    }
}

// ------------------------------------------------- skip efficiency

// The regression guard for the skip itself: a pointer-chasing run on
// the small-window baseline spends nearly all of its cycles waiting on
// memory with dispatch held by a full ROB, and those cycles must be
// skipped, not ticked (about 5% ticked when this guard was set).
TEST(ExactSkip, MemoryBoundRunTicksFewCycles)
{
    RunConfig rc;
    rc.warmupInsts = 50000;
    rc.measureInsts = 400000;
    Session s(MachineConfig::r10_64(), "mcf", mem::MemConfig::mem400(),
              rc);
    s.run();
    const auto &core = s.core();
    EXPECT_LE(double(core.tickedCycles()), 0.15 * double(core.cycle()))
        << core.tickedCycles() << " of " << core.cycle()
        << " cycles ticked";
}
