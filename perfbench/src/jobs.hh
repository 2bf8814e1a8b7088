/**
 * @file
 * The benchmark's workloads and the jobs they run.
 *
 * A workload is a fixed list of jobs (machine x program) run one at a
 * time, single-threaded, in a closed loop; one pass over the list is a
 * round. Every job drives the simulator through its public API —
 * sim::Session with a borrowed workload, or sample::runSampled — and
 * reports host times plus the row and statistics its output checks
 * need.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.hh"
#include "src/wload/profile.hh"
#include "tracer.hh"

namespace perfbench
{

/** The benchmark seed that reproduces the presets' own seeds. */
constexpr uint64_t DefaultSeed = 0;

/** Sampled-vs-exact IPC error CI pins on the seed-0 mcf trace. */
constexpr double SampledErrPinPct = 2.0;

enum class Mode
{
    Exact,       ///< Session warmup + step loop + finish
    Sampled,     ///< runSampled over a trace captured per round
    CkptReplay,  ///< exact, checkpoint at every audit boundary, then
                 ///< restore each into a second Session and digest
};

struct JobSpec
{
    std::string machine;  ///< MachineConfig::byName alias
    std::string program;  ///< workload preset
};

struct WorkloadSpec
{
    std::string name;
    Mode mode = Mode::Exact;
    std::vector<JobSpec> jobs;
    kilo::sim::RunConfig rc;
    uint64_t traceOps = 0;  ///< Sampled: ops captured per round
};

/** The benchmark's workloads, by name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);
std::vector<std::string> workloadNames();

/** A program's generator profile at benchmark seed @p seed: the
 *  preset unchanged at DefaultSeed, a derived seed otherwise. */
kilo::wload::WorkloadProfile programProfile(const std::string &program,
                                            uint64_t seed);

/**
 * One host-speed calibration sample: ns per op of a fixed op-stream
 * generation loop that belongs to the benchmark, not to the program
 * (no simulator code runs, so no change to the simulator moves it).
 * On a shared host the speed available to one thread drifts by tens
 * of percent over minutes; this loop slows down with the simulator,
 * so host times divided by samples taken beside them compare across
 * runs and hosts. About 15 ms.
 */
double calibrationSample();

/** What one job measured. Times are host nanoseconds. */
struct JobOutcome
{
    uint32_t jobId = 0;   ///< tracer job id
    size_t spec = 0;      ///< index into WorkloadSpec::jobs
    std::string kind;     ///< machine alias: r10-64, kilo, dkip
    std::string program;

    bool ok = true;
    std::string error;

    std::string row;       ///< runResultJson of the job's result
    kilo::stats::Snapshot snap;
    uint64_t commitWidth = 0;

    uint64_t setupNs = 0;    ///< workload + Session construction
    uint64_t wallNs = 0;     ///< warm-up .. finish (+ ckpt work)
    uint64_t advanceNs = 0;  ///< step/runFor calls, or runSampled
    uint64_t insts = 0;      ///< measured insts (sampled: represented)
    uint64_t cycles = 0;     ///< measured cycles (exact jobs)
    uint64_t arenaAllocs = 0;
    uint64_t pulled = 0;     ///< ops pulled (traced runs only)
    uint64_t warmupInsts = 0;
    double calibNs = 0;      ///< mean calibration sample around the job

    /** CkptReplay. @{ */
    uint64_t replayInsts = 0;   ///< stepped again from restored images
    uint64_t replayCycles = 0;
    std::vector<uint64_t> ckptBytes;
    uint64_t auditRolling = 0;
    /** @} */

    /** Sampled. @{ */
    uint64_t totalIntervals = 0;
    uint64_t simulatedIntervals = 0;
    uint64_t detailInsts = 0;
    uint64_t warmInsts = 0;
    uint64_t skippedInsts = 0;
    double fingerprintNs = 0, clusterNs = 0, simulateNs = 0,
           reconstructNs = 0;
    double ipcErrPct = 0;
    /** @} */
};

/** Per-round set-up shared by a workload's jobs (trace capture). */
struct RoundSetup
{
    uint64_t captureNs = 0;
    uint64_t traceBytes = 0;
    uint64_t traceOps = 0;
};

/**
 * Runs rounds of one workload at one seed. Construction does the
 * untimed preparation: for a Sampled workload at a non-default seed
 * it captures the trace once and computes the exact reference IPCs.
 */
class Runner
{
  public:
    Runner(const WorkloadSpec &spec, uint64_t seed,
           const std::string &out_dir,
           const std::vector<double> &reference_exact_ipc);

    /** One pass over every job. @p tracer may be null. */
    std::vector<JobOutcome> round(Tracer *tracer, RoundSetup &setup);

    /** Labels of the tracer job ids handed out so far. */
    const std::vector<std::string> &jobLabels() const { return labels; }

    /** The canonical by-name Simulator::run row of job @p j (only
     *  meaningful at DefaultSeed, where names give the same stream). */
    kilo::sim::RunResult canonical(size_t j) const;

    /** Exact IPC per job used to score sampled runs. */
    const std::vector<double> &exactIpc() const { return exact; }

  private:
    JobOutcome runExact(const JobSpec &js, Tracer *t);
    JobOutcome runCkptReplay(const JobSpec &js, Tracer *t);
    JobOutcome runSampled(size_t j, const JobSpec &js, Tracer *t);
    void capture(Tracer *t, RoundSetup &setup);
    uint32_t newJob(Tracer *t, const std::string &label);

    const WorkloadSpec &spec;
    uint64_t seed;
    std::string tracePath;
    std::vector<double> exact;
    std::vector<std::string> labels;
    uint64_t roundNo = 0;
};

} // namespace perfbench
