#include "src/trace/trace_format.hh"

#include <bit>
#include <cstring>

#include "src/util/fnv.hh"

namespace kilo::trace
{

namespace
{

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(uint8_t(v));
}

uint8_t
encodeReg(int16_t reg)
{
    return uint8_t(reg + 1);
}

} // anonymous namespace

void
encodeOp(std::vector<uint8_t> &out, const isa::MicroOp &op,
         CodecState &state)
{
    using detail::ClassMask;
    using detail::TakenBit;
    using detail::zigzag;

    out.push_back(uint8_t(uint8_t(op.cls) & ClassMask) |
                  (op.taken ? TakenBit : 0));
    out.push_back(encodeReg(op.src1));
    out.push_back(encodeReg(op.src2));
    out.push_back(encodeReg(op.dst));
    putVarint(out, zigzag(int64_t(op.pc - state.prevPc)));
    state.prevPc = op.pc;
    if (op.isMem()) {
        putVarint(out, zigzag(int64_t(op.effAddr - state.prevEffAddr)));
        state.prevEffAddr = op.effAddr;
        out.push_back(op.memSize);
    }
    if (op.isBranch())
        putVarint(out, zigzag(int64_t(op.target - op.pc)));
}

uint32_t
blockChecksum(const uint8_t *data, size_t size)
{
    // Word-at-a-time xor-rotate-multiply mix (FNV constants). A
    // byte-serial FNV would put a dependent multiply on every payload
    // byte, costing more than the record decode itself. The rotate is
    // not decoration: without it (plain util::mix) a flip in bit 63
    // of a word only ever reaches bit 63 of the state, so two such
    // flips cancel. KILOTRC files depend on this exact algorithm.
    uint64_t h = util::FnvBasis ^ size;
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        h = (std::rotl(h, 5) ^ w) * util::FnvPrime;
    }
    if (i < size) {
        uint64_t tail = 0;
        std::memcpy(&tail, data + i, size - i);
        h = (std::rotl(h, 5) ^ tail) * util::FnvPrime;
    }
    return uint32_t(h ^ (h >> 32));
}

} // namespace kilo::trace
