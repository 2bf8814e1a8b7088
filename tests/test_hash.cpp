/**
 * @file
 * Known-answer tests for every hash the simulator persists or
 * compares: the shared FNV-1a (src/util/fnv.hh) against the standard
 * 64-bit vectors, and pinned values for each fold built on it. The
 * pinned values were taken from the code before the folds were
 * routed through src/util/fnv.hh, so a change to any of them is a
 * format change (KILOTRC block checksums, KILOAUD digests), not a
 * refactor.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/ckpt/serial.hh"
#include "src/obs/audit.hh"
#include "src/sim/session.hh"
#include "src/trace/trace_format.hh"
#include "src/util/fnv.hh"

using namespace kilo;

namespace
{

uint64_t
fnvOf(const std::string &s)
{
    return util::fnv1a(reinterpret_cast<const uint8_t *>(s.data()),
                       s.size());
}

/** 37 fixed bytes: four whole words plus a 5-byte tail. */
struct Buf37
{
    uint8_t b[37];
    Buf37()
    {
        for (int i = 0; i < 37; ++i)
            b[i] = uint8_t(i * 151 + 7);
    }
};

} // anonymous namespace

TEST(HashKnownAnswer, Fnv1aStandardVectors)
{
    EXPECT_EQ(fnvOf(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnvOf("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnvOf("foobar"), 0x85944171f73967e8ull);
    // Continuing from a prefix's hash is hashing the concatenation.
    const uint8_t *foo = reinterpret_cast<const uint8_t *>("foo");
    const uint8_t *bar = reinterpret_cast<const uint8_t *>("bar");
    EXPECT_EQ(util::fnv1a(bar, 3, util::fnv1a(foo, 3)),
              fnvOf("foobar"));
}

TEST(HashKnownAnswer, BlockChecksumIsPinned)
{
    Buf37 buf;
    EXPECT_EQ(trace::blockChecksum(buf.b, sizeof(buf.b)), 0x4052f42fu);
}

TEST(HashKnownAnswer, BlockChecksumSeesPairedTopBitFlips)
{
    // The reason blockChecksum keeps its rotate: under a plain
    // xor-multiply fold a flip in bit 63 only ever changes bit 63 of
    // the state, so the same flip in two words cancels out.
    uint64_t words[2] = {0x0123456789abcdefull, 0xfedcba9876543210ull};
    uint64_t flipped[2] = {words[0] ^ (1ull << 63),
                           words[1] ^ (1ull << 63)};
    auto bytes = [](const uint64_t *w) {
        return reinterpret_cast<const uint8_t *>(w);
    };
    EXPECT_NE(trace::blockChecksum(bytes(words), 16),
              trace::blockChecksum(bytes(flipped), 16));
    uint64_t plain = util::mix(util::mix(util::FnvBasis, words[0]),
                               words[1]);
    uint64_t plain_flipped =
        util::mix(util::mix(util::FnvBasis, flipped[0]), flipped[1]);
    EXPECT_EQ(plain, plain_flipped);
}

TEST(HashKnownAnswer, DigestSinkIsPinned)
{
    Buf37 buf;
    ckpt::Sink s(ckpt::SinkMode::Digest);
    s.bytes(buf.b, sizeof(buf.b));
    EXPECT_EQ(s.digest(), 0x61e66adf4d2cc3bdull);
    EXPECT_EQ(s.size(), 0u); // digesting stores nothing
}

TEST(HashKnownAnswer, AuditMixIsPinned)
{
    EXPECT_EQ(obs::auditMix(obs::AuditBasis, 1, 2, 3),
              0xd0aa6218672cf5abull);
}

TEST(HashKnownAnswer, RegistryFoldIsPinned)
{
    sim::RunConfig rc;
    rc.warmupInsts = 2000;
    rc.measureInsts = 10000;
    sim::Session s(sim::MachineConfig::r10_64(), "mcf",
                   mem::MemConfig::mem400(), rc);
    s.run();
    EXPECT_EQ(s.core().statsRegistry().foldValues(obs::AuditBasis),
              0x88b2f1b8b53eff62ull);
}
