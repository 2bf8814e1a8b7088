/**
 * @file
 * Low-Locality Register File (LLRF).
 *
 * Banked storage for the single READY operand an instruction may
 * carry into the LLIB (paper section 3.2). Eight single-ported banks
 * with independent free lists; insertion and extraction operate on
 * disjoint bank groups, and a read that collides with a bank written
 * in the same cycle stalls extraction for one cycle. The paper
 * computes a 6.6x area reduction against a centralised 4R/4W file —
 * we model the timing consequences (bank conflicts, fill-up stalls).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dyn_inst.hh"
#include "src/util/free_list.hh"

namespace kilo::dkip
{

/** Banked LLRF model. */
class Llrf
{
  public:
    /**
     * @param num_banks      number of single-ported banks
     * @param regs_per_bank  slots per bank
     */
    Llrf(int num_banks = 8, int regs_per_bank = 256);

    /** Total slots. */
    uint32_t numSlots() const;

    /** Slots currently allocated (O(1): a running count). */
    uint32_t numAllocated() const { return allocated; }

    /** True when no bank has a free slot. */
    bool fullyAllocated() const;

    /**
     * Allocate a slot for @p inst's READY operand, round-robin over
     * the banks, and mark the chosen bank written this cycle.
     * @return false when every bank is full.
     */
    bool tryAlloc(core::DynInst &inst);

    /** Free the slot held by @p inst (extraction or squash). */
    void release(core::DynInst &inst);

    /** True when @p bank was written this cycle (read conflict). */
    bool bankWrittenThisCycle(int bank) const;

    /** Clear the per-cycle write marks. */
    void beginCycle() { writtenMask = 0; }

    /** Number of banks. */
    int numBanks() const { return int(banks.size()); }

    /** Serialize / restore bank free lists, per-cycle write marks and
     *  the round-robin cursor. Bank geometry is configuration; the
     *  allocation count is derived from the free lists on load. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        for (const FreeList &b : banks)
            b.save(s);
        s.template scalar<uint64_t>(writtenMask);
        s.template scalar<int32_t>(int32_t(rrBank));
    }

    template <typename Source>
    void
    load(Source &s)
    {
        allocated = 0;
        for (FreeList &b : banks) {
            b.load(s);
            allocated += b.numAllocated();
        }
        writtenMask = s.template scalar<uint64_t>();
        rrBank = int(s.template scalar<int32_t>());
    }
    /** @} */

  private:
    std::vector<FreeList> banks;
    uint64_t writtenMask = 0;
    int rrBank = 0;
    uint32_t allocated = 0;
};

} // namespace kilo::dkip

