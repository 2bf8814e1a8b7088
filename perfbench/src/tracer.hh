/**
 * @file
 * Benchmark-side span tracing.
 *
 * Spans are recorded around the calls the benchmark makes into the
 * simulator's public API (Session, Workload, runSampled, ...), never
 * inside the simulator: the library is built from unmodified source.
 * Each span carries a name, start, end, parent span and job id. Spans
 * stay in memory until the run ends; self time (a span's duration
 * minus the time its direct children cover) is what the per-layer
 * tables report.
 *
 * A null Tracer pointer turns every Scope into a no-op without a
 * clock read, which is how the untraced (end-to-end) run stays free
 * of tracing cost.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/wload/workload.hh"

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
uint64_t nowNs();

struct Span
{
    const char *name = "";  ///< static string, "layer.call"
    uint64_t start = 0;     ///< ns, Tracer epoch
    uint64_t end = 0;
    int32_t parent = -1;    ///< index into Tracer::spans(), -1 = root
    uint32_t job = 0;
};

class Tracer
{
  public:
    Tracer();

    /** Spans opened from now on belong to @p job. */
    void setJob(uint32_t job) { job_ = job; }

    int32_t open(const char *name);
    void close(int32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the duration of direct children, per span. */
    std::vector<uint64_t> selfTimes() const;

    /**
     * Write Chrome trace-event JSON (Perfetto / chrome://tracing):
     * one complete ("X") event per span, one track per job named by
     * @p job_labels[job].
     */
    void writeChrome(const std::string &path,
                     const std::vector<std::string> &job_labels) const;

  private:
    uint64_t epoch;
    uint32_t job_ = 0;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span; does nothing (not even a clock read) on a null tracer. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : tracer(t), id(t ? t->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer)
            tracer->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    int32_t id;
};

/**
 * Forwarding Workload that records a span around every pull
 * (next/nextBlock), skip and reset of the wrapped stream. The
 * simulator sees the identical instruction sequence, so rows are
 * unchanged (checked on every traced run).
 */
class TracedWorkload : public kilo::wload::Workload
{
  public:
    /** @p pull_span names pull spans ("wload.pull", "trace.decode"). */
    TracedWorkload(kilo::wload::Workload &inner, Tracer &tracer,
                   const char *pull_span);

    kilo::isa::MicroOp next() override;
    size_t nextBlock(kilo::isa::MicroOp *out, size_t n) override;
    void skip(uint64_t n) override;
    void reset() override;
    const std::string &name() const override { return inner.name(); }
    bool isFp() const override { return inner.isFp(); }
    std::vector<kilo::wload::AddressRegion> regions() const override
    {
        return inner.regions();
    }

    uint64_t pulled() const { return pulled_; }
    uint64_t skipped() const { return skipped_; }

  private:
    kilo::wload::Workload &inner;
    Tracer &tracer;
    const char *pullSpan;
    uint64_t pulled_ = 0;
    uint64_t skipped_ = 0;
};

} // namespace perfbench
