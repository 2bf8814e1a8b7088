/**
 * @file
 * Traditional KILO-instruction processor baseline (Cristal et al.,
 * HPCA 2004 — reference [9] of the paper).
 *
 * The same aging ROB, Analyze stage, LLBV and checkpoint recovery as
 * the D-KIP (dkip::AnalyzeCore). The one difference is where a
 * low-locality instruction parks: KILO sends every one, memory ops
 * included, to the Slow Lane Instruction Queue (SLIQ) — a large
 * *out-of-order* secondary queue with global wakeup that issues to
 * the same functional units. This is the KILO-1024 configuration of
 * the paper's Figure 9: better on pointer chasing than the FIFO
 * LLIB, but paying for a 1024-entry CAM and the ephemeral-register
 * machinery.
 */

#pragma once

#include "src/dkip/analyze_core.hh"

namespace kilo::kilo_proc
{

/** Parameters of the KILO baseline. */
struct KiloParams
{
    /** Front core (pseudo-ROB 64, 72-entry issue queues). */
    core::CoreParams cp;

    int robTimer = 16;          ///< pseudo-ROB drain timer
    int analyzeWidth = 4;
    size_t sliqCapacity = 1024;
    int sliqIssueWidth = 4;
    size_t checkpointCapacity = 16;
    int recoveryExtraPenalty = 8;

    /** The KILO-1024 configuration of Figure 9. */
    static KiloParams kilo1024();
};

/** Checkpointed out-of-order-commit processor with a SLIQ. */
class KiloCore final : public dkip::AnalyzeCore
{
  public:
    KiloCore(const KiloParams &params, wload::Workload &workload,
             const mem::MemConfig &mem_config);

    /** SLIQ occupancy (tests). */
    size_t sliqOccupancy() const { return sliq.size(); }

  protected:
    void tick() override;
    size_t totalReady() const override;
    void beginCycleQueues() override;
    void saveSlowLane(ckpt::Sink &s) const override;
    void restoreSlowLane(ckpt::Source &s) override;

  private:
    friend class dkip::AnalyzeCore;

    /** Analyze's placement: into the SLIQ, stalling while it is
     *  full. */
    bool park(InstRef ref);

    int sliqIssueWidth;
    core::IssueQueue sliq;
};

} // namespace kilo::kilo_proc
