#include "src/dkip/llrf.hh"

#include "src/util/logging.hh"

namespace kilo::dkip
{

Llrf::Llrf(int num_banks, int regs_per_bank)
{
    KILO_ASSERT(num_banks >= 1 && num_banks <= 64,
                "LLRF bank count out of range");
    banks.reserve(size_t(num_banks));
    for (int b = 0; b < num_banks; ++b)
        banks.emplace_back(uint32_t(regs_per_bank));
}

uint32_t
Llrf::numSlots() const
{
    uint32_t n = 0;
    for (const auto &b : banks)
        n += b.numSlots();
    return n;
}

bool
Llrf::fullyAllocated() const
{
    for (const auto &b : banks)
        if (b.hasFree())
            return false;
    return true;
}

bool
Llrf::tryAlloc(core::DynInst &inst)
{
    int n = numBanks();
    for (int i = 0; i < n; ++i) {
        int bank = (rrBank + i) % n;
        if (banks[size_t(bank)].hasFree()) {
            inst.llrfBank = bank;
            inst.llrfSlot = int(banks[size_t(bank)].alloc());
            writtenMask |= uint64_t(1) << bank;
            rrBank = (bank + 1) % n;
            ++allocated;
            return true;
        }
    }
    return false;
}

void
Llrf::release(core::DynInst &inst)
{
    if (inst.llrfBank < 0)
        return;
    banks[size_t(inst.llrfBank)].release(uint32_t(inst.llrfSlot));
    --allocated;
    inst.llrfBank = -1;
    inst.llrfSlot = -1;
}

bool
Llrf::bankWrittenThisCycle(int bank) const
{
    return (writtenMask >> bank) & 1;
}

} // namespace kilo::dkip
