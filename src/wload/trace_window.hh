/**
 * @file
 * Rewindable window over a workload's instruction stream.
 *
 * The cores model branch misprediction as squash-and-replay: fetch
 * runs ahead down the (correct-path) trace, and when a branch resolves
 * wrong everything younger is squashed and re-fetched. The window
 * therefore buffers every micro-op from the oldest in-flight
 * instruction to the youngest fetched one so that re-fetch replays
 * identical micro-ops.
 */

#pragma once

#include <cstdint>

#include "src/isa/micro_op.hh"
#include "src/util/logging.hh"
#include "src/util/ring_deque.hh"
#include "src/wload/workload.hh"

namespace kilo::wload
{

/** Buffered, seekable view of a Workload keyed by dynamic sequence. */
class TraceWindow
{
  public:
    /** Micro-ops pulled from the workload per refill: the window is
     *  the core's one consumer of the stream, so steady-state fetch
     *  costs one virtual nextBlock() call per this many ops. */
    static constexpr size_t RefillBatch = 64;

    explicit TraceWindow(Workload &workload);

    /**
     * Micro-op with dynamic sequence number @p seq.
     * Generates forward on demand (in RefillBatch-op batches);
     * @p seq must be >= the release point.
     */
    const isa::MicroOp &op(uint64_t seq);

    /** Mark every op with sequence < @p seq as retired/reclaimable. */
    void release(uint64_t seq);

    /** Oldest sequence number still buffered. */
    uint64_t base() const { return baseSeq; }

    /** One past the youngest generated sequence number. */
    uint64_t frontier() const { return baseSeq + buf.size(); }

    /**
     * Reposition the window so the next op() serves @p seq, skipping
     * the underlying workload forward without buffering the ops in
     * between (functional fast-forward). @p seq must be >= base();
     * jumping backwards within the buffer just releases.
     */
    void jumpTo(uint64_t seq);

    /**
     * Most ops a live window buffers. Every buffered op is in flight
     * (each holds an instruction slot, bounded by the machine's ROB,
     * queues and slow-lane buffers: a few thousand on the largest
     * modelled machine), was squashed but not yet released, or is
     * part of one refill's read-ahead. No live window comes near
     * 2^20; save() checks it, and a restore rejects a larger count
     * before buffering anything.
     */
    static constexpr uint64_t MaxSpan = uint64_t(1) << 20;

    /** The saved window position: base and buffered op count. */
    struct Span
    {
        uint64_t base = 0;
        uint64_t count = 0;
    };

    /**
     * Serialize / restore the window position. Buffered ops are NOT
     * stored: the stream is deterministic, so restoreSpan()
     * repositions the workload (reset + skip) and re-pulls the
     * buffered span, byte-for-byte the ops the saved window held.
     * Restoring is two steps. loadSpan() only reads the position.
     * restoreSpan() runs once the fetch point has been restored,
     * which the span must bracket, so a corrupt position is refused
     * before a single op is generated. A synthetic workload serves
     * the skip from its snapshot index (once it has run past the
     * base) and trace replay jumps whole blocks, so the cost follows
     * the span, not the base. @{
     */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        KILO_ASSERT(buf.size() <= MaxSpan,
                    "TraceWindow: %lu buffered ops exceed MaxSpan",
                    (unsigned long)buf.size());
        s.template scalar<uint64_t>(baseSeq);
        s.template scalar<uint64_t>(buf.size());
    }

    template <typename Source>
    static Span
    loadSpan(Source &s)
    {
        Span span;
        span.base = s.template scalar<uint64_t>();
        span.count = s.template scalar<uint64_t>();
        return span;
    }

    /**
     * Reposition to @p span and return true. Return false, touching
     * nothing, when span.count > MaxSpan or @p fetch_seq lies outside
     * [span.base, span.base + span.count]: no live window is either.
     */
    [[nodiscard]] bool restoreSpan(const Span &span, uint64_t fetch_seq);
    /** @} */

  private:
    Workload &workload;
    RingDeque<isa::MicroOp> buf;
    uint64_t baseSeq = 0;
};

} // namespace kilo::wload

