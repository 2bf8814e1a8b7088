/**
 * @file
 * The synthetic kernel generator: turns a WorkloadProfile into an
 * endless, deterministic micro-op stream.
 *
 * Each "iteration" emits a fixed template of micro-ops (induction
 * update, chase loads, stream loads, random loads, dependent and
 * independent compute, an occasional store and divide, conditional
 * branches, loop-back branch). Program counters are stable per
 * template slot so branch predictors see a real static branch set.
 *
 * The stream is seekable: every mutable field lives in one copyable
 * Cursor, and the generator keeps a bounded index of cursors taken at
 * iteration boundaries while it runs (the live-points idea). skip()
 * jumps to the latest indexed cursor at or before its target, so a
 * checkpoint restore regenerates at most one index stride of ops
 * however late in the run the image was taken.
 */

#pragma once

#include <array>
#include <deque>
#include <vector>

#include "src/util/rng.hh"
#include "src/wload/profile.hh"
#include "src/wload/workload.hh"

namespace kilo::wload
{

/** Workload generator driven by a WorkloadProfile. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const WorkloadProfile &profile);

    isa::MicroOp next() override;
    size_t nextBlock(isa::MicroOp *out, size_t n) override;
    const std::string &name() const override { return prof.name; }
    bool isFp() const override { return prof.fp; }
    void reset() override;
    /** Same stream as @p n next() calls; jumps to the latest indexed
     *  cursor at or before the target, then generates the rest. */
    void skip(uint64_t n) override;
    std::vector<AddressRegion> regions() const override;

    /** Profile in use. */
    const WorkloadProfile &profile() const { return prof; }

    /** Number of micro-ops in one full iteration template. */
    int opsPerIteration() const { return slotsPerIter; }

    /** The snapshot index holds a cursor at the first iteration
     *  boundary at or past every multiple of the stride; when it
     *  reaches SnapshotCapacity entries it drops every other one and
     *  the stride doubles. It grows with use, so a short run holds
     *  only the cursors it recorded, and stops growing once full.
     *  @{ */
    static constexpr uint64_t SnapshotStride = 4096;
    static constexpr size_t SnapshotCapacity = 1024;
    /** @} */

  private:
    /** Most streams a profile may use: stream regions sit
     *  streamSpacing apart between streamBase and randBase. */
    static constexpr int MaxStreams = 16;

    /** Every mutable field of the generator; copying one is a
     *  complete snapshot of the stream position. */
    struct Cursor
    {
        Rng rng;
        std::array<uint64_t, MaxStreams> streamPos{};
        uint64_t storePos = 0;
        uint64_t iter = 0;
        uint64_t emitted = 0;   ///< ops generated since reset()
        uint32_t chaseNode = 0;
        int chaseSteps = 0;     ///< steps taken in the current chain
        int loadRegIdx = 0;
        int computeRegIdx = 0;
        int indepRegIdx = 0;
        int16_t newestLoadReg = 0;
    };

    void emitIteration();
    uint64_t storeRegionBytes() const;
    uint64_t slotPc(int slot) const;
    int16_t nextLoadReg();
    int16_t nextComputeReg();
    void emitDepCompute(int16_t loaded_reg, int &slot);
    void buildChaseChain();
    void recordSnapshot();

    WorkloadProfile prof;
    Cursor start;   ///< the cursor reset() restores
    Cursor cur;
    std::deque<isa::MicroOp> pending;

    /** Pointer-chase permutation (node index -> next node index). */
    std::vector<uint32_t> chain;
    int slotsPerIter = 0;

    /** Snapshot index, sorted by Cursor::emitted. It depends only on
     *  the profile, so it survives reset(). @{ */
    std::vector<Cursor> snapshots;
    uint64_t stride = SnapshotStride;   ///< doubles at each thinning
    uint64_t nextSnapshotAt = SnapshotStride;
    /** @} */

    /** Address-space bases for the regions. @{ */
    static constexpr uint64_t chaseBase = 0x10000000ull;
    static constexpr uint64_t streamBase = 0x40000000ull;
    static constexpr uint64_t streamSpacing = 0x04000000ull;
    static constexpr uint64_t randBase = 0x80000000ull;
    static constexpr uint64_t storeBase = 0xc0000000ull;
    static constexpr uint64_t farBase = 0x100000000ull;
    static constexpr uint64_t kernelPcBase = 0x10000ull;
    /** @} */

    static_assert(streamBase + MaxStreams * streamSpacing <= randBase);
};

/** Construct the generator for a named benchmark. */
WorkloadPtr makeWorkload(const std::string &name);

/** Construct a generator from an explicit profile. */
WorkloadPtr makeWorkload(const WorkloadProfile &profile);

} // namespace kilo::wload

