#include "src/wload/trace_window.hh"

#include "src/util/logging.hh"

namespace kilo::wload
{

TraceWindow::TraceWindow(Workload &wl)
    : workload(wl)
{}

const isa::MicroOp &
TraceWindow::op(uint64_t seq)
{
    KILO_ASSERT(seq >= baseSeq,
                "TraceWindow: sequence %lu already released (base %lu)",
                (unsigned long)seq, (unsigned long)baseSeq);
    while (seq >= frontier()) {
        // Batched refill: one virtual call per RefillBatch ops. The
        // overshoot past `seq` is just read-ahead of a deterministic
        // stream — replay and capture both see identical ops.
        isa::MicroOp batch[RefillBatch];
        size_t got = workload.nextBlock(batch, RefillBatch);
        KILO_ASSERT(got > 0, "TraceWindow: workload produced no ops");
        for (size_t i = 0; i < got; ++i)
            buf.push_back(batch[i]);
    }
    return buf[size_t(seq - baseSeq)];
}

void
TraceWindow::release(uint64_t seq)
{
    while (baseSeq < seq && !buf.empty()) {
        buf.pop_front();
        ++baseSeq;
    }
}

void
TraceWindow::jumpTo(uint64_t seq)
{
    KILO_ASSERT(seq >= baseSeq,
                "TraceWindow: cannot jump to released sequence %lu "
                "(base %lu)",
                (unsigned long)seq, (unsigned long)baseSeq);
    if (seq <= frontier()) {
        release(seq);
        return;
    }
    // Past the read-ahead: drop the buffer and let the workload leap
    // the gap without materialising the skipped ops.
    uint64_t gap = seq - frontier();
    buf.clear();
    workload.skip(gap);
    baseSeq = seq;
}

bool
TraceWindow::restoreSpan(const Span &span, uint64_t fetch_seq)
{
    if (span.count > MaxSpan || fetch_seq < span.base ||
        fetch_seq - span.base > span.count)
        return false;
    buf.clear();
    baseSeq = span.base;
    workload.reset();
    workload.skip(span.base);
    // Re-pull EXACTLY count ops, not op()'s batch-rounded refill,
    // whose read-ahead overshoot depends on how the live window's
    // pulls happened to align. The frontier is part of the
    // serialized state, so a restore must land on the same one or
    // re-checkpointing (and the audit plane's state digests) would
    // differ from the run it resumed.
    isa::MicroOp batch[RefillBatch];
    for (uint64_t need = span.count; need;) {
        size_t want = need < RefillBatch ? size_t(need) : RefillBatch;
        size_t got = workload.nextBlock(batch, want);
        KILO_ASSERT(got > 0 && got <= want,
                    "TraceWindow: workload under-ran its own "
                    "checkpointed span");
        for (size_t i = 0; i < got; ++i)
            buf.push_back(batch[i]);
        need -= got;
    }
    return true;
}

} // namespace kilo::wload
