/**
 * @file
 * The Analyze stage the two kilo-window machines share.
 *
 * D-KIP-2048 and the KILO-instruction processor of Cristal et al.
 * (HPCA 2004, the paper's reference [9]; KILO-1024 in Figure 9) are
 * the same machine up to one decision. Both drain an aging ROB: an
 * entry faces Analyze a fixed timer after decode. Analyze classifies
 * it by the Low-Locality Bit Vector (LLBV) of its sources; a
 * low-locality instruction leaves the out-of-order core for a slow
 * lane, and a slow-lane branch takes a checkpoint that a
 * misprediction resolving in the slow lane recovers through.
 *
 * The one difference is where a low-locality instruction parks. The
 * D-KIP sends it to a FIFO LLIB that feeds a Memory Processor (a
 * memory op goes to the Address Processor instead); KILO sends it to
 * one large out-of-order SLIQ. Each machine states that decision as
 * its park() and owns only the structures behind it.
 */

#pragma once

#include "src/core/ooo_core.hh"
#include "src/dkip/checkpoint_stack.hh"
#include "src/util/bit_vector.hh"

namespace kilo::dkip
{

/** Aging ROB + Analyze + LLBV + checkpoint recovery. */
class AnalyzeCore : public core::OooCore
{
  public:
    using InstRef = core::InstRef;

    /** The LLBV (tests). */
    const BitVector &lowLocalityBits() const { return llbv; }

    /** Checkpoint stack (tests). */
    const CheckpointStack &checkpoints() const { return chkpt; }

  protected:
    /**
     * @p rob_timer cycles pass between decode and Analyze; Analyze
     * drains up to @p analyze_width entries a cycle; a slow-lane
     * misprediction pays @p recovery_penalty extra cycles when a
     * checkpoint covers it and three times that when none does.
     */
    AnalyzeCore(const core::CoreParams &cp, wload::Workload &workload,
                const mem::MemConfig &mem_config, int rob_timer,
                int analyze_width, size_t checkpoint_capacity,
                int recovery_penalty);

    /**
     * The Analyze head walk. Machine::park(ref) places each
     * low-locality head and returns false when Analyze must stall
     * this cycle; the call is static, so the per-head path has no
     * virtual dispatch.
     */
    template <typename Machine>
    void stageAnalyze();

    /**
     * The steps every slow-lane placement shares, in this order: a
     * checkpoint when @p inst is a branch, leave its issue queue,
     * mark its destination low-locality, flag it slow-lane and emit
     * the Park event with @p lane as its timeline payload.
     */
    void divertToSlowLane(InstRef ref, core::DynInst &inst,
                          uint8_t lane);

    /** Serialize / restore the machine's own slow-lane structures;
     *  they sit between the LLBV and the checkpoint stack in the
     *  KILOCKPT payload. @{ */
    virtual void saveSlowLane(ckpt::Sink &s) const = 0;
    virtual void restoreSlowLane(ckpt::Source &s) = 0;
    /** @} */

    void onCommitInst(InstRef inst) override;
    void onSquashInst(InstRef inst) override;
    void onBranchResolved(InstRef inst) override;
    void onRecovered(InstRef branch) override;
    int recoveryExtraPenalty(InstRef branch) const override;
    uint64_t nextTimedWake() const override;
    core::StallReason
    refineStallReason(const core::DynInst &head,
                      core::StallReason r) const override;
    void saveDerived(ckpt::Sink &s) const override;
    void restoreDerived(ckpt::Source &s) override;

  private:
    /**
     * The paper's rule: an instruction is low-locality when a source
     * register's LLBV bit is set. Analyze is in order, so the LLBV
     * reflects exactly the definitions older than @p inst. A load
     * blocked on a slow-lane store belongs to the slice too, even
     * though its registers are high-locality.
     */
    bool
    lowLocality(const core::DynInst &inst) const
    {
        int16_t s1 = inst.op.src1;
        int16_t s2 = inst.op.src2;
        if ((s1 != isa::NoReg && llbv.test(size_t(s1))) ||
            (s2 != isa::NoReg && llbv.test(size_t(s2))))
            return true;
        if (!inst.op.isLoad())
            return false;
        core::LoadCheck check = lsq.checkLoad(inst);
        if (check.kind != core::LoadCheck::Kind::Blocked)
            return false;
        const core::DynInst &store = arena.get(check.store);
        return store.execInMp || store.longLatency;
    }

    const int robTimer;
    const int analyzeWidth;
    const int recoveryPenalty;
    BitVector llbv;
    CheckpointStack chkpt;
};

template <typename Machine>
void
AnalyzeCore::stageAnalyze()
{
    int budget = analyzeWidth;
    while (budget > 0 && !rob.empty()) {
        InstRef headRef = rob.front();
        core::DynInst &head = arena.get(headRef);

        // The aging ROB: entries face Analyze a fixed timer after
        // decode. The timer is sized so an L2 hit/miss indication is
        // back by the time a load reaches the head.
        if (now <
            arena.coldOf(head).dispatchCycle + uint64_t(robTimer))
            break;

        if (head.completed) {
            // Executed: short latency. Completion redefines the
            // destination as high-locality.
            if (head.op.dst != isa::NoReg)
                llbv.clear(size_t(head.op.dst));
        } else if (head.op.isLoad() && head.issued) {
            // A cache hit still in flight waits for writeback. An
            // off-chip miss marks its destination low-locality; the
            // memory system delivers the value to the slow lane.
            if (!head.longLatency) {
                countStallCycle(st.analyzeStallCycles);
                break;
            }
            if (head.op.dst != isa::NoReg)
                llbv.set(size_t(head.op.dst));
        } else if (head.issued || !lowLocality(head)) {
            // Short latency but not written back yet (a non-load
            // already executing, or one still waiting in its issue
            // queue): the paper stalls Analyze until writeback so
            // checkpoints always see READY short-latency values
            // (~0.7% IPC loss reported).
            countStallCycle(st.analyzeStallCycles);
            break;
        } else if (!static_cast<Machine *>(this)->park(headRef)) {
            break;
        }
        rob.pop_front();
        releaseAgingRobEntry(head);
        --budget;
        ++activity;
    }
}

} // namespace kilo::dkip
