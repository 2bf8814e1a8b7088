#include "tracer.hh"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

Tracer::Tracer() : epoch(nowNs())
{
    // Reserved up front so growth rarely lands inside a timed span.
    spans_.reserve(1 << 20);
}

int32_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job_;
    auto id = int32_t(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    spans_.back().start = nowNs() - epoch;
    return id;
}

void
Tracer::close(int32_t id)
{
    spans_[size_t(id)].end = nowNs() - epoch;
    stack_.pop_back();
}

std::vector<uint64_t>
Tracer::selfTimes() const
{
    std::vector<uint64_t> child(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[size_t(s.parent)] += s.end - s.start;
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        uint64_t dur = spans_[i].end - spans_[i].start;
        self[i] = dur > child[i] ? dur - child[i] : 0;
    }
    return self;
}

void
Tracer::writeChrome(const std::string &path,
                    const std::vector<std::string> &job_labels) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    bool first = true;
    for (size_t j = 0; j < job_labels.size(); ++j) {
        std::fprintf(f,
                     "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"%s\"}}",
                     first ? "" : ",\n", j, job_labels[j].c_str());
        first = false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string cat(s.name);
        cat = cat.substr(0, cat.find('.'));
        std::fprintf(f,
                     "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"name\":\"%s\",\"cat\":\"%s\","
                     "\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%u}}",
                     first ? "" : ",\n", s.job, s.name, cat.c_str(),
                     double(s.start) / 1e3,
                     double(s.end - s.start) / 1e3, i, s.parent, s.job);
        first = false;
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

TracedWorkload::TracedWorkload(kilo::wload::Workload &wrapped,
                               Tracer &t, const char *pull_span)
    : inner(wrapped), tracer(t), pullSpan(pull_span)
{
}

kilo::isa::MicroOp
TracedWorkload::next()
{
    Scope s(&tracer, pullSpan);
    ++pulled_;
    return inner.next();
}

size_t
TracedWorkload::nextBlock(kilo::isa::MicroOp *out, size_t n)
{
    Scope s(&tracer, pullSpan);
    size_t got = inner.nextBlock(out, n);
    pulled_ += got;
    return got;
}

void
TracedWorkload::skip(uint64_t n)
{
    Scope s(&tracer, "wload.skip");
    skipped_ += n;
    inner.skip(n);
}

void
TracedWorkload::reset()
{
    Scope s(&tracer, "wload.reset");
    inner.reset();
}

} // namespace perfbench
