/**
 * @file
 * Unified load/store queue (the Address Processor's storage).
 *
 * Entries are allocated at dispatch in program order and released
 * from the head once complete, so capacity pressure from long-latency
 * loads is modelled. Disambiguation is oracle (the trace carries
 * exact addresses): a load may issue as soon as its address register
 * is ready unless an older, unexecuted store to the same location
 * exists, in which case the load blocks on that store and forwards
 * from it when it executes. This is the behaviour the paper assumes
 * from the scalable LSQ proposals it cites ([12]-[14]).
 *
 * The store index is an open hash over fixed buckets with intrusive
 * chains through DynInst::lsqBucketNext (newest first, i.e. in
 * descending sequence order), so steady-state store traffic touches
 * no allocator. The LSQ also performs the deferred recycling of
 * instructions that commit while still holding an entry.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/core/dyn_inst.hh"
#include "src/core/inst_arena.hh"
#include "src/util/ring_deque.hh"

namespace kilo::core
{

/** Result of a load's disambiguation check. */
struct LoadCheck
{
    enum class Kind : uint8_t
    {
        Memory,    ///< no conflict; access the hierarchy
        Forward,   ///< forward from an executed older store
        Blocked,   ///< wait for an older store to execute
    };

    Kind kind = Kind::Memory;
    InstRef store;  ///< conflicting store for Forward/Blocked
};

/** Unified LSQ model. */
class Lsq
{
  public:
    Lsq(size_t capacity, InstArena &arena);

    size_t capacity() const { return cap; }
    size_t size() const { return entries.size(); }
    bool full() const { return entries.size() >= cap; }

    /** Allocate an entry at dispatch (program order). */
    void insert(InstRef ref);

    /** Disambiguate @p load against older stores. */
    LoadCheck checkLoad(const DynInst &load) const;

    /**
     * Release completed entries from the head, recycling any that
     * already committed (their slot free was deferred to here).
     */
    void retireCompleted();

    /** @p ref was squashed; must be the youngest entry. */
    void notifySquashed(InstRef ref);

    /** Total store-to-load forwards observed. */
    uint64_t forwards() const { return nForwards; }

    /** Count one forward (called by the core on a Forward result). */
    void countForward() { ++nForwards; }

    /** Serialize / restore entries, the store index and the forward
     *  counter. Capacity is configuration: load() throws
     *  CheckpointError when the saved entries or store index do not
     *  fit it. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        entries.save(s);
        s.podVector(buckets);
        s.template scalar<uint64_t>(nForwards);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        entries.load(s);
        if (entries.size() > cap)
            throw ckpt::CheckpointError(
                "LSQ checkpoint exceeds configured capacity");
        s.podVector(buckets);
        if (buckets.size() != NumBuckets)
            throw ckpt::CheckpointError(
                "LSQ checkpoint bucket-count mismatch");
        nForwards = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    static constexpr size_t NumBuckets = 1024; // power of two

    static uint64_t keyOf(uint64_t addr) { return addr >> 3; }

    static size_t
    bucketOf(uint64_t key)
    {
        // Fibonacci hash spreads the granule key over the buckets.
        return size_t((key * 0x9E3779B97F4A7C15ull) >> 32) &
               (NumBuckets - 1);
    }

    void removeFromIndex(DynInst &store);

    InstArena &arena;
    size_t cap;
    RingDeque<InstRef> entries;
    /** Bucket heads: newest store in the bucket's intrusive chain. */
    std::vector<InstRef> buckets;
    uint64_t nForwards = 0;
};

} // namespace kilo::core

