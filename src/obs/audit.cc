#include "src/obs/audit.hh"

#include <algorithm>

#include "src/ckpt/serial.hh"

namespace kilo::obs
{

namespace
{

constexpr size_t RecordBytes = 32;
constexpr size_t FixedBytes = 8 + 8; // intervalInsts + finalRolling

} // anonymous namespace

void
writeAuditFile(const std::string &path, const AuditStream &stream)
{
    ckpt::Sink s;
    s.scalar(stream.intervalInsts);
    for (const AuditRecord &r : stream.records) {
        s.scalar(r.insts);
        s.scalar(r.cycle);
        s.scalar(r.state);
        s.scalar(r.rolling);
    }
    s.scalar(stream.finalRolling());
    ckpt::writeFramed<AuditError>(path, AuditMagic, AuditVersion,
                                  s.data());
}

AuditStream
readAuditFile(const std::string &path)
{
    std::vector<uint8_t> payload =
        ckpt::readFramed<AuditError>(path, AuditMagic, AuditVersion);
    if (payload.size() < FixedBytes ||
        (payload.size() - FixedBytes) % RecordBytes != 0)
        throw AuditError("KILOAUD payload is not whole records: " +
                         path);

    // The size check above makes every read below in bounds.
    ckpt::Source in(payload);
    AuditStream stream;
    stream.intervalInsts = in.scalar<uint64_t>();
    size_t count = (payload.size() - FixedBytes) / RecordBytes;
    uint64_t rolling = AuditBasis;
    stream.records.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        AuditRecord r;
        r.insts = in.scalar<uint64_t>();
        r.cycle = in.scalar<uint64_t>();
        r.state = in.scalar<uint64_t>();
        r.rolling = in.scalar<uint64_t>();
        rolling = auditMix(rolling, r.insts, r.cycle, r.state);
        if (r.rolling != rolling) {
            throw AuditError(
                "KILOAUD rolling chain broken at record " +
                std::to_string(i) + ": " + path);
        }
        stream.records.push_back(r);
    }

    if (in.scalar<uint64_t>() != stream.finalRolling())
        throw AuditError("KILOAUD trailing digest mismatch: " + path);
    return stream;
}

long
firstDivergence(const AuditStream &a, const AuditStream &b)
{
    if (a.intervalInsts != b.intervalInsts) {
        throw AuditError(
            "KILOAUD streams recorded at different cadences (" +
            std::to_string(a.intervalInsts) + " vs " +
            std::to_string(b.intervalInsts) +
            " insts) are not comparable");
    }
    size_t n = std::min(a.records.size(), b.records.size());
    for (size_t i = 0; i < n; ++i) {
        const AuditRecord &ra = a.records[i];
        const AuditRecord &rb = b.records[i];
        if (ra.insts != rb.insts || ra.cycle != rb.cycle ||
            ra.state != rb.state || ra.rolling != rb.rolling)
            return long(i);
    }
    if (a.records.size() != b.records.size())
        return long(n);
    return -1;
}

} // namespace kilo::obs
