/**
 * @file
 * The one 64-bit FNV-1a: constants, a word step and the byte-serial
 * hash. Every checksum and digest in the simulator is built from it —
 * the KILOCKPT/KILOAUD payload checksum (fnv1a), the Digest-mode
 * ckpt::Sink and stats::Registry::foldValues (word-wise mix), the
 * KILOAUD rolling chain (obs::auditMix) and the per-block digests
 * trace_info prints. trace::blockChecksum takes the constants but
 * keeps its own rotate step (src/trace/DESIGN.md).
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace kilo::util
{

/** FNV-1a 64-bit offset basis (the empty-input hash). */
inline constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

/** FNV 64-bit prime. */
inline constexpr uint64_t FnvPrime = 0x100000001b3ull;

/** One FNV-1a step over a whole 64-bit word. */
constexpr uint64_t
mix(uint64_t h, uint64_t w)
{
    return (h ^ w) * FnvPrime;
}

/** Byte-serial FNV-1a over @p n bytes, continuing from @p h. */
constexpr uint64_t
fnv1a(const uint8_t *p, size_t n, uint64_t h = FnvBasis)
{
    for (size_t i = 0; i < n; ++i)
        h = mix(h, p[i]);
    return h;
}

} // namespace kilo::util
