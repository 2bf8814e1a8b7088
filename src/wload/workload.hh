/**
 * @file
 * Workload interface: a deterministic producer of micro-op traces.
 *
 * The paper evaluates SPEC CPU2000 through SimPoint-selected regions.
 * We cannot redistribute SPEC, so each benchmark is modelled by a
 * synthetic kernel generator that reproduces the properties execution
 * locality depends on: L2 miss rate, miss independence (MLP vs pointer
 * chasing), branch predictability, and the coupling between branches
 * and uncached data. See src/wload/profiles.cc for the per-benchmark
 * parameterisations and DESIGN.md for the substitution rationale.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/isa/micro_op.hh"

namespace kilo::wload
{

/** A contiguous data region a workload touches (cache pre-warming). */
struct AddressRegion
{
    uint64_t base = 0;
    uint64_t bytes = 0;
};

/** A deterministic, endless instruction stream. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next micro-op of the dynamic instruction stream. */
    virtual isa::MicroOp next() = 0;

    /**
     * Produce the next @p n micro-ops into @p out and return how many
     * were written (always @p n for an endless stream). Semantically
     * identical to calling next() @p n times; generators override it
     * so the simulator's steady-state fetch path pays one virtual
     * call per batch instead of one per micro-op.
     */
    virtual size_t
    nextBlock(isa::MicroOp *out, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            out[i] = next();
        return n;
    }

    /**
     * Advance the stream past the next @p n micro-ops without
     * handing them to the caller. Semantically identical to @p n
     * next() calls; the default decodes and discards. Seekable
     * workloads override it: trace replay jumps whole blocks (the
     * fast-forward primitive of sampled simulation) and the
     * synthetic generator resumes from its nearest indexed cursor
     * (what keeps a checkpoint restore, reset + skip, from
     * regenerating the stream from op 0).
     */
    virtual void
    skip(uint64_t n)
    {
        isa::MicroOp buf[64];
        while (n) {
            size_t take = n < 64 ? size_t(n) : size_t(64);
            size_t got = nextBlock(buf, take);
            n -= got;
        }
    }

    /** Benchmark name (e.g. "mcf", "swim"). */
    virtual const std::string &name() const = 0;

    /** True for the floating-point suite. */
    virtual bool isFp() const = 0;

    /** Restart the stream from the beginning, deterministically. */
    virtual void reset() = 0;

    /**
     * Data regions for functional cache warm-up. The paper measures
     * 200M-instruction SimPoint regions with warm caches; installing
     * the working set's tags before the timed region reproduces that
     * steady state without simulating hundreds of millions of
     * instructions.
     */
    virtual std::vector<AddressRegion> regions() const { return {}; }
};

using WorkloadPtr = std::unique_ptr<Workload>;

} // namespace kilo::wload

