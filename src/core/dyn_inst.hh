/**
 * @file
 * Dynamic instruction state shared by every core model.
 *
 * A DynInst is a micro-op in flight. Instructions live in a per-core
 * InstArena (src/core/inst_arena.hh) and reference each other through
 * generation-checked 32-bit InstRef handles instead of shared_ptrs:
 * containers (ROB, queues, LLIB) hold handles, and a slot is recycled
 * explicitly when its instruction commits or is squashed. A handle
 * held across its target's recycling goes *stale* — tryGet() returns
 * null for it — which encodes exactly the "producer is no longer in
 * flight" answer every dataflow query wants.
 *
 * The record is split hot/cold for cache footprint. DynInst itself
 * holds only what the per-cycle loops touch — the hot MicroOp slice,
 * sequence, status flags, wakeup state, structure-residency links —
 * and fits in exactly 64 bytes (one cache line, down from the 224 of
 * the unsplit struct). Everything read a bounded number of times per
 * instruction (pc and branch target, timestamps past fetch, branch
 * recovery state, producer links, the scoreboard's squash-restore
 * snapshot) lives in a parallel DynInstCold array owned by the arena,
 * reachable through InstArena::cold(). Dataflow edges are arena-pooled
 * intrusive chains (DynInst::depHead) rather than a per-instruction
 * std::vector, so building and walking them never touches the heap.
 *
 * Issue-queue residency is an id (DynInst::iqId) into the owning
 * core's queue table rather than a pointer, which keeps the record
 * both compact and position-independent — a prerequisite for the
 * checkpoint layer's verbatim slab serialization (src/ckpt/).
 */

#pragma once

#include <cstdint>
#include <type_traits>

#include "src/isa/micro_op.hh"
#include "src/mem/hierarchy.hh"

namespace kilo::core
{

/**
 * Generation-checked handle to a DynInst slot in an InstArena.
 *
 * Packs a 20-bit slot index and a 12-bit generation into 32 bits.
 * A default-constructed handle is null (boolean false); a non-null
 * handle whose generation no longer matches its slot is *stale* and
 * is rejected by InstArena::get()/filtered by InstArena::tryGet().
 */
class InstRef
{
  public:
    static constexpr uint32_t IndexBits = 20;
    static constexpr uint32_t GenBits = 32 - IndexBits;
    static constexpr uint32_t MaxSlots = 1u << IndexBits;
    static constexpr uint32_t GenMask = (1u << GenBits) - 1;

    constexpr InstRef() = default;

    static InstRef
    make(uint32_t index, uint32_t gen)
    {
        InstRef r;
        r.bits = (gen << IndexBits) | index;
        return r;
    }

    bool valid() const { return bits != Invalid; }
    explicit operator bool() const { return valid(); }

    uint32_t index() const { return bits & (MaxSlots - 1); }
    uint32_t gen() const { return bits >> IndexBits; }
    uint32_t raw() const { return bits; }

    friend bool
    operator==(InstRef a, InstRef b)
    {
        return a.bits == b.bits;
    }

    friend bool
    operator!=(InstRef a, InstRef b)
    {
        return a.bits != b.bits;
    }

  private:
    static constexpr uint32_t Invalid = UINT32_MAX;

    uint32_t bits = Invalid;
};

/**
 * One in-flight instruction (an InstArena slot): the hot fields the
 * per-cycle loops touch. Cold per-instruction state lives in the
 * parallel DynInstCold record at the same slot index.
 */
struct DynInst
{
    /** Null link of the arena-pooled dependent chains. */
    static constexpr uint32_t NoDep = UINT32_MAX;

    isa::MicroOpHot op;
    uint64_t seq = 0;            ///< dynamic sequence number

    /** Cycle the last source arrived (wakeup). */
    uint64_t readyCycle = 0;

    /** Fetch timestamp; gates dispatch (front-end depth). */
    uint64_t fetchCycle = 0;

    /** Arena bookkeeping (owned by InstArena). @{ */
    InstRef self;                ///< this instruction's own handle
    uint32_t gen = 0;            ///< slot generation (bumped on free)
    /** @} */

    /** Head of this producer's dependent chain (InstArena dep pool),
     *  or NoDep. Producers wake dependents through it on completion. */
    uint32_t depHead = NoDep;

    /** Next older store in the same LSQ store-index bucket. */
    InstRef lsqBucketNext;

    /** Id of the issue queue currently holding this instruction in
     *  the owning core's queue table (-1 = none); see
     *  PipelineBase::queueById(). */
    int8_t iqId = -1;

    /** Status flags. @{ */
    bool dispatched : 1 = false;
    bool readyFlag : 1 = false;  ///< all sources available
    bool issued : 1 = false;
    bool completed : 1 = false;
    bool squashed : 1 = false;
    bool retired : 1 = false;    ///< committed; slot freed once the
                                 ///< LSQ releases its entry
    bool inLsq : 1 = false;      ///< holds an LSQ entry
    bool inRob : 1 = false;      ///< holds a ROB / aging-ROB entry
    bool predTaken : 1 = false;
    bool mispredicted : 1 = false;
    /** @} */

    /** Resolved branch direction, recovered from the prediction bits
     *  (mispredicted == predTaken != taken at fetch). */
    bool taken() const { return predTaken != mispredicted; }

    /** D-KIP / KILO classification state. @{ */
    bool longLatency : 1 = false; ///< classified low execution locality
    bool inLlib : 1 = false;      ///< currently resident in an LLIB
    bool execInMp : 1 = false;    ///< executed by a Memory Processor
    /** @} */

    /** Pending source count (wakeup underflow guard). */
    int8_t srcNotReady = 0;

    /** Level that serviced this op's memory access. */
    mem::ServiceLevel serviceLevel = mem::ServiceLevel::L1;

    /** LLRF binding of the READY operand (bank/slot, -1 = none). @{ */
    int8_t llrfBank = -1;
    int16_t llrfSlot = -1;
    /** @} */
};

static_assert(sizeof(DynInst) <= 64,
              "DynInst hot record grew past one cache line; move the "
              "new field to DynInstCold unless a per-cycle loop needs "
              "it");
static_assert(std::is_trivially_copyable_v<DynInst>,
              "DynInst must stay trivially copyable (InstArena::alloc "
              "constructs over the previous tenant without destroying "
              "it; the checkpoint layer serializes slots field by "
              "field — see inst_arena.cc saveSlot)");

/**
 * Cold per-instruction state: written once or twice and read a
 * bounded number of times per instruction, never scanned by the
 * per-cycle loops. Parallel array to the DynInst slots, owned by
 * InstArena and addressed by the same slot index.
 */
struct DynInstCold
{
    /** Instruction address (debug, predictor training). */
    uint64_t pc = 0;

    /** Resolved branch target (Branch only). */
    uint64_t target = 0;

    /** Pipeline timestamps past fetch (absolute cycles). @{ */
    uint64_t dispatchCycle = 0;  ///< rename/dispatch (decode time)
    uint64_t issueCycle = 0;
    uint64_t completeCycle = 0;
    /** @} */

    /** Global-history snapshot at prediction (branch recovery). */
    uint64_t historySnapshot = 0;

    /**
     * In-flight producers of src1/src2 at rename time (null when the
     * source was ready). Used by Analyze (long-latency-load tests);
     * a stale handle means the producer already left the pipeline.
     */
    InstRef producers[2];

    /** Previous scoreboard mapping of op.dst, for squash restore. @{ */
    InstRef prevProducer;
    uint64_t prevReadyCycle = 0;
    uint64_t prevDefinerSeq = 0;
    bool prevDefinerValid = false;
    /** @} */

    /** Decode-to-issue distance (the paper's Issue Latency). */
    uint64_t
    issueLatency() const
    {
        return issueCycle >= dispatchCycle ? issueCycle - dispatchCycle
                                           : 0;
    }

    /** Release producer links (called on completion and on squash). */
    void
    dropProducers()
    {
        producers[0] = InstRef();
        producers[1] = InstRef();
    }
};

static_assert(std::is_trivially_copyable_v<DynInstCold>,
              "DynInstCold must stay trivially copyable "
              "(InstArena::alloc constructs over the previous tenant "
              "without destroying it; the checkpoint layer serializes "
              "slots field by field — see inst_arena.cc saveSlot)");

} // namespace kilo::core

