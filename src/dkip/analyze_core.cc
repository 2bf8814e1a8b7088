#include "src/dkip/analyze_core.hh"

#include <algorithm>

namespace kilo::dkip
{

AnalyzeCore::AnalyzeCore(const core::CoreParams &cp,
                         wload::Workload &wl,
                         const mem::MemConfig &mem_config,
                         int rob_timer, int analyze_width,
                         size_t checkpoint_capacity,
                         int recovery_penalty)
    : core::OooCore(cp, wl, mem_config),
      robTimer(rob_timer),
      analyzeWidth(analyze_width),
      recoveryPenalty(recovery_penalty),
      llbv(isa::NumRegs),
      chkpt(checkpoint_capacity)
{}

void
AnalyzeCore::divertToSlowLane(InstRef ref, core::DynInst &inst,
                              uint8_t lane)
{
    if (inst.op.isBranch()) {
        if (chkpt.full()) {
            // No free checkpoint: the branch proceeds uncovered (the
            // hardware would have skipped this high-confidence-style
            // checkpoint); a misprediction then replays from an older
            // checkpoint at a higher recovery penalty.
            ++st.checkpointSkips;
        } else {
            chkpt.push(inst.seq, llbv);
            ++st.checkpointsTaken;
            obsEvent(obs::EventKind::CkptCreate, inst.seq,
                     chkpt.size());
        }
    }
    if (core::IssueQueue *iq = queueById(inst.iqId))
        iq->erase(ref);
    if (inst.op.dst != isa::NoReg)
        llbv.set(size_t(inst.op.dst));
    inst.longLatency = true;
    inst.execInMp = true;
    obsEvent(obs::EventKind::Park, inst.seq, 0, lane);
}

uint64_t
AnalyzeCore::nextTimedWake() const
{
    uint64_t wake = core::OooCore::nextTimedWake();
    if (!rob.empty()) {
        wake = std::min(wake, arena.cold(rob.front()).dispatchCycle +
                                  uint64_t(robTimer));
    }
    return wake;
}

core::StallReason
AnalyzeCore::refineStallReason(const core::DynInst &head,
                               core::StallReason r) const
{
    using R = core::StallReason;
    // A head sitting unissued in the slow lane (an LLIB FIFO, an MP
    // reservation queue, the AP window, the SLIQ) is stalled on the
    // decoupled machinery itself, not on the out-of-order core's
    // dataflow or issue bandwidth.
    if ((r == R::Depend || r == R::Issue) &&
        (head.inLlib || head.execInMp))
        return R::Decoupled;
    return r;
}

void
AnalyzeCore::onCommitInst(InstRef inst)
{
    // ROB entries left at Analyze; commit is bookkeeping only.
    (void)inst;
}

void
AnalyzeCore::onSquashInst(InstRef ref)
{
    if (!rob.empty() && rob.back() == ref) {
        rob.pop_back();
        arena.get(ref).inRob = false;
    }
    // Issue-queue residency (the SLIQ, MP and AP queues included) is
    // handled through DynInst::iqId by the base pipeline.
}

void
AnalyzeCore::onBranchResolved(InstRef ref)
{
    const core::DynInst &inst = arena.get(ref);
    if (inst.execInMp)
        chkpt.resolve(inst.seq);
}

int
AnalyzeCore::recoveryExtraPenalty(InstRef ref) const
{
    const core::DynInst &branch = arena.get(ref);
    if (!branch.execInMp)
        return 0;
    // Slow-lane mispredictions restore a full checkpoint instead of
    // using the core's rename stack; an uncovered branch replays from
    // an older checkpoint and pays correspondingly more.
    bool covered = chkpt.findFor(branch.seq) != nullptr;
    return covered ? recoveryPenalty : 3 * recoveryPenalty;
}

void
AnalyzeCore::onRecovered(InstRef ref)
{
    const core::DynInst &branch = arena.get(ref);
    if (branch.execInMp) {
        const Checkpoint *cp = chkpt.findFor(branch.seq);
        if (cp) {
            llbv = cp->llbv;
        } else {
            // Conservative full clear (paper's literal recovery
            // semantics) when no checkpoint is available.
            llbv.clearAll();
        }
        obsEvent(obs::EventKind::CkptRestore, branch.seq,
                 cp ? 1 : 0);
    }
    chkpt.squashFrom(branch.seq);
}

void
AnalyzeCore::saveDerived(ckpt::Sink &s) const
{
    OooCore::saveDerived(s);
    llbv.save(s);
    saveSlowLane(s);
    chkpt.save(s);
}

void
AnalyzeCore::restoreDerived(ckpt::Source &s)
{
    OooCore::restoreDerived(s);
    llbv.load(s);
    restoreSlowLane(s);
    chkpt.load(s);
}

} // namespace kilo::dkip
