/**
 * @file
 * Determinism audit plane: KILOAUD state-hash streams.
 *
 * The fourth observability plane (src/obs/DESIGN.md v2). At a
 * configurable instruction cadence a Session folds a deterministic
 * FNV-style digest over its complete architectural state — exactly
 * the bytes the checkpoint machinery serializes, via a Digest-mode
 * ckpt::Sink, plus every registered statistic — and records one
 * 32-byte AuditRecord per interval. Two runs of the same
 * configuration are deterministic if and only if their KILOAUD
 * streams are byte-identical; the first record that differs names
 * the first divergent interval, and tools/kilodiff bisects inside it
 * (src/obs_audit/bisect.hh) to the first divergent cycle.
 *
 * The stream is a payload in the framed container of
 * src/ckpt/serial.hh (magic, version, length, FNV-1a checksum), and
 * every digest here is built from the one FNV in src/util/fnv.hh.
 * Readers (tools, the shard orchestrator) therefore need only the
 * ckpt leaf module, never the simulator proper; the digest
 * *producer* lives in src/sim/session.cc.
 *
 *     char[8]  magic          "KILOAUD1"
 *     u32      version        AuditVersion (bumped on any layout or
 *                             digest-composition change; old streams
 *                             are rejected, never migrated)
 *     u64      length         payload bytes = 16 + 32 × records
 *     u64      checksum       FNV-1a over the payload
 *     payload:
 *       u64      intervalInsts  cadence the stream was recorded at
 *       records  N × 32-byte AuditRecord
 *       u64      finalRolling   rolling digest after the last record
 *
 * Each AuditRecord chains into a rolling digest via auditMix(), so
 * on top of the payload checksum a reader re-derives the whole chain
 * and the trailing finalRolling: a forged stream with a recomputed
 * checksum still fails unless its chain is consistent.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/fnv.hh"

namespace kilo::obs
{

/** Any failure to produce, parse or validate a KILOAUD stream. */
class AuditError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** File magic, first 8 bytes of every KILOAUD file. */
constexpr char AuditMagic[8] = {'K', 'I', 'L', 'O', 'A', 'U', 'D', '1'};

/**
 * Stream format version; bumped on any layout or digest change.
 * v2: the stream is a framed-container payload (src/ckpt/serial.hh).
 */
constexpr uint32_t AuditVersion = 2;

/** FNV-1a offset basis — the seed of every audit digest chain. */
constexpr uint64_t AuditBasis = util::FnvBasis;

/** One interval-boundary observation; exactly 32 bytes on disk. */
struct AuditRecord
{
    uint64_t insts = 0;   ///< committed instructions at the boundary
    uint64_t cycle = 0;   ///< absolute core cycle at the boundary
    uint64_t state = 0;   ///< state digest (checkpoint bytes + stats)
    uint64_t rolling = 0; ///< chain digest after folding this record
};

/** Fold one record into the rolling chain digest. */
constexpr uint64_t
auditMix(uint64_t rolling, uint64_t insts, uint64_t cycle,
         uint64_t state)
{
    rolling = util::mix(rolling, insts);
    rolling = util::mix(rolling, cycle);
    return util::mix(rolling, state);
}

/** A parsed (or under-construction) KILOAUD stream. */
struct AuditStream
{
    uint64_t intervalInsts = 0;
    std::vector<AuditRecord> records;

    /** finalRolling of the stream (AuditBasis when empty). */
    uint64_t
    finalRolling() const
    {
        return records.empty() ? AuditBasis : records.back().rolling;
    }
};

/** Write @p stream to @p path in the KILOAUD container. */
void writeAuditFile(const std::string &path,
                    const AuditStream &stream);

/**
 * Read and validate a KILOAUD file. Validates the container (magic,
 * version, length against file size, payload checksum), the payload
 * length against whole records, the per-record rolling chain
 * (recomputed from AuditBasis) and the trailing finalRolling.
 * Throws AuditError on any malformation.
 */
AuditStream readAuditFile(const std::string &path);

/**
 * Index of the first record where @p a and @p b disagree (any field),
 * or -1 if no compared record differs. Streams of unequal length
 * diverge at the shorter length if all shared records agree. Streams
 * recorded at different cadences are not comparable (AuditError).
 */
long firstDivergence(const AuditStream &a, const AuditStream &b);

} // namespace kilo::obs
