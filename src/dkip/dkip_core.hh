/**
 * @file
 * The Decoupled KILO-Instruction Processor (D-KIP) — the paper's
 * primary contribution.
 *
 * It shares the aging ROB, the Analyze stage, the LLBV and checkpoint
 * recovery with the KILO baseline (dkip::AnalyzeCore). The one
 * difference is where a low-locality instruction parks: a FIFO LLIB
 * that feeds a Memory Processor, or, for a memory op, the Address
 * Processor's window.
 *
 * Structure (paper Figures 5-8):
 *   - Cache Processor (CP): the inherited out-of-order core with an
 *     Aging-ROB — entries drain past the Analyze stage a fixed ROB
 *     timer after decode instead of waiting to commit.
 *   - Analyze: classifies each instruction by execution locality
 *     using the Low-Locality Bit Vector (LLBV); low-locality
 *     instructions divert to an LLIB with at most one READY operand
 *     parked in the banked LLRF.
 *   - LLIBs: two FIFO buffers (integer, FP) with no issue logic.
 *   - Memory Processors (MP): two simple Future-File machines with
 *     small reservation queues (in-order by default) that execute the
 *     low-locality slices when their feeding loads complete.
 *   - Address Processor: the shared LSQ + 2 global memory ports the
 *     base pipeline already models; completed long-latency load
 *     values flow to the MPs through per-LLIB value FIFOs.
 *   - Checkpoint stack: selective checkpoints at LLIB-resident
 *     branches; a misprediction resolving in the MP recovers the full
 *     machine (CP + LLIBs + MPs) through its checkpoint.
 */

#pragma once

#include "src/dkip/analyze_core.hh"
#include "src/dkip/llib.hh"
#include "src/dkip/llrf.hh"

namespace kilo::dkip
{

/** Parameters specific to the decoupled machine. */
struct DkipParams
{
    /** Cache Processor parameters (Table 2 defaults). */
    core::CoreParams cp;

    int robTimer = 16;            ///< aging cycles before Analyze
    int analyzeWidth = 4;

    size_t llibCapacity = 2048;   ///< entries per LLIB
    int llibExtractRate = 4;      ///< extractions per LLIB per cycle

    int llrfBanks = 8;
    int llrfRegsPerBank = 256;

    size_t mpIqSize = 20;         ///< MP reservation-queue entries
    core::SchedPolicy mpPolicy = core::SchedPolicy::InOrder;
    int mpIssueWidth = 4;

    size_t checkpointCapacity = 16;
    int mpRecoveryExtraPenalty = 8;  ///< checkpoint restore cost

    core::FuConfig mpIntFus = core::FuConfig::intMemProcessor();
    core::FuConfig mpFpFus = core::FuConfig::fpMemProcessor();

    /** The D-KIP-2048 configuration evaluated in the paper. */
    static DkipParams dkip2048();
};

/** The decoupled KILO-instruction processor. */
class DkipCore final : public AnalyzeCore
{
  public:
    DkipCore(const DkipParams &params, wload::Workload &workload,
             const mem::MemConfig &mem_config);

    /** Structure inspection for tests and occupancy benches. @{ */
    const Llib &intLlib() const { return llibInt; }
    const Llib &fpLlib() const { return llibFp; }
    const Llrf &intLlrf() const { return llrfInt; }
    const Llrf &fpLlrf() const { return llrfFp; }
    /** @} */

  protected:
    void tick() override;
    void onSquashInst(InstRef inst) override;
    size_t totalReady() const override;
    void beginCycleQueues() override;
    void saveSlowLane(ckpt::Sink &s) const override;
    void restoreSlowLane(ckpt::Source &s) override;

    void stageExtract();
    void stageIssueDecoupled();

  private:
    friend class AnalyzeCore;

    /**
     * Analyze's placement: a memory op into the Address Processor's
     * window, anything else into its LLIB (with an LLRF register when
     * an operand is already READY). False while the target is full.
     */
    bool park(InstRef ref);
    bool hasReadyOperand(const core::DynInst &inst) const;
    void extractFrom(Llib &llib, Llrf &llrf, core::IssueQueue &mpq);
    void trackOccupancy();

    DkipParams dprm;

    Llib llibInt;
    Llib llibFp;
    Llrf llrfInt;
    Llrf llrfFp;

    core::IssueQueue mpIntQ;
    core::IssueQueue mpFpQ;
    /**
     * Address Processor scheduling window: low-locality loads and
     * stores leave the LLIB straight into the decoupled LSQ's
     * control, which issues them over the global memory ports as
     * soon as their address operand is available (paper 3.2:
     * "long-latency loads are executed in the address processor").
     */
    core::IssueQueue apQ;
    core::FuPool mpIntFus;
    core::FuPool mpFpFus;
};

} // namespace kilo::dkip

