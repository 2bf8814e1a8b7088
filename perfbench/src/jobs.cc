#include "jobs.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <sys/stat.h>

#include "src/mem/hierarchy.hh"
#include "src/obs/profiler.hh"
#include "src/sample/sampled_run.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

namespace perfbench
{

namespace
{

/** Cycle quantum of one Session::step call. */
constexpr uint64_t StepCycles = 1 << 17;

const std::vector<std::string> AllMachines{"r10-64", "kilo", "dkip"};

std::vector<JobSpec>
crossJobs(const std::vector<std::string> &programs,
          const std::vector<std::string> &machines)
{
    std::vector<JobSpec> jobs;
    for (const auto &p : programs)
        for (const auto &m : machines)
            jobs.push_back({m, p});
    return jobs;
}

sim::RunConfig
exactConfig(uint64_t warmup, uint64_t measure)
{
    sim::RunConfig rc;
    rc.warmupInsts = warmup;
    rc.measureInsts = measure;
    return rc;
}

std::vector<WorkloadSpec>
buildWorkloads()
{
    std::vector<WorkloadSpec> w;

    // mcf pointer-chase and swim streaming misses on all three cores:
    // the memory hierarchy, MSHRs and the decoupled slow lane do the
    // work. The paper's case.
    WorkloadSpec membound;
    membound.name = "membound";
    membound.jobs = crossJobs({"mcf", "swim"}, AllMachines);
    membound.rc = exactConfig(50'000, 400'000);
    w.push_back(membound);

    // gcc and crafty: fetch, prediction and squash recovery dominate
    // and misses are few, so memory and slow-lane changes are bypassed.
    WorkloadSpec branchy;
    branchy.name = "branchy";
    branchy.jobs = crossJobs({"gcc", "crafty"}, AllMachines);
    branchy.rc = exactConfig(50'000, 600'000);
    w.push_back(branchy);

    // Sampled runs of a captured mcf trace, in the configuration CI
    // pins (and on the same trace at seed 0): trace decode, block
    // skip, functional warming and the sample layer.
    WorkloadSpec sampled;
    sampled.name = "sampled";
    sampled.mode = Mode::Sampled;
    sampled.jobs = crossJobs({"mcf"}, {"r10-64", "dkip"});
    sampled.rc = exactConfig(50'000, 950'000);
    sampled.rc.samplingMode = sim::SamplingMode::Sampled;
    sampled.rc.intervalInsts = 20'000;
    sampled.rc.numClusters = 12;
    sampled.traceOps = 1'000'000;
    w.push_back(sampled);

    // Exact mcf with a checkpoint at every audit boundary, each
    // restored into a second Session, digested and replayed: the ckpt
    // and audit layers, which no other workload calls.
    WorkloadSpec ckpt;
    ckpt.name = "ckpt-replay";
    ckpt.mode = Mode::CkptReplay;
    ckpt.jobs = crossJobs({"mcf"}, {"dkip", "r10-64"});
    ckpt.rc = exactConfig(50'000, 300'000);
    ckpt.rc.auditIntervalInsts = 10'000;
    w.push_back(ckpt);

    return w;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> w = buildWorkloads();
    return w;
}

const mem::MemConfig &
mem400()
{
    static const mem::MemConfig m = mem::MemConfig::mem400();
    return m;
}

/** splitmix64 finaliser: well-spread, never maps distinct seeds to
 *  one another. */
uint64_t
mix(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A Session over its own generator, which is wrapped in a
 * TracedWorkload when a tracer is given. Built in place: the Session
 * borrows the workload, so it is declared (and destroyed) last.
 */
struct Rig
{
    wload::WorkloadPtr wl;
    std::optional<TracedWorkload> traced;
    std::optional<sim::Session> session;

    Rig(const sim::MachineConfig &machine,
        const wload::WorkloadProfile &profile, const sim::RunConfig &rc,
        Tracer *t)
    {
        {
            Scope s(t, "wload.make");
            wl = wload::makeWorkload(profile);
        }
        wload::Workload *use = wl.get();
        if (t)
            use = &traced.emplace(*wl, *t, "wload.pull");
        Scope s(t, "sim.ctor");
        session.emplace(machine, *use, mem400(), rc);
    }

    uint64_t pulled() const { return traced ? traced->pulled() : 0; }
};

/** Run the warm-up region; returns the arena's allocation count at
 *  the start of the measured region. */
uint64_t
warmup(sim::Session &session, Tracer *t)
{
    Scope s(t, "sim.warmup");
    session.warmup();
    return session.core().instArena().totalAllocs();
}

/** Close the measured region: arena delta, snapshot and finish. */
sim::RunResult
finish(JobOutcome &o, sim::Session &session, uint64_t allocs0, Tracer *t)
{
    o.arenaAllocs = session.core().instArena().totalAllocs() - allocs0;
    {
        Scope s(t, "stats.snapshot");
        o.snap = session.snapshot();
    }
    Scope s(t, "sim.finish");
    return session.finish();
}

/** Record an exact job's result and apply the checks every exact
 *  result must pass. */
void
record(JobOutcome &o, const sim::RunResult &r, const sim::Session &session)
{
    const sim::RunConfig &rc = session.config();
    o.commitWidth = uint64_t(session.core().params().commitWidth);
    o.row = sim::runResultJson(r);
    o.insts = r.stats.committed;
    o.cycles = r.stats.cycles;
    o.warmupInsts = rc.warmupInsts;

    auto fail = [&](const std::string &why) {
        if (o.ok) {
            o.ok = false;
            o.error = why;
        }
    };
    if (r.aborted)
        fail("run aborted");
    // The run stops at the end of the cycle that reaches
    // measureInsts, so a W-wide commit stage may overshoot by < W.
    if (r.stats.committed < rc.measureInsts ||
        r.stats.committed >= rc.measureInsts + o.commitWidth)
        fail("committed " + std::to_string(r.stats.committed) +
             " outside [measureInsts, measureInsts + width)");
    uint64_t stall = 0;
    for (const auto &e : r.snapshot.entries)
        if (e.name.rfind("stall_", 0) == 0)
            stall += e.value.u;
    if (stall + r.stats.committed != o.commitWidth * r.stats.cycles)
        fail("stall slots + committed != width x cycles");
}

} // anonymous namespace

double
calibrationSample()
{
    // A miniature of a synthetic generator: an xorshift stream picks
    // the fields of a 12-slot op template (streaming and chained
    // addresses, register names, biased branches) written into a
    // ring. Frozen: changing it breaks comparison with old results.
    struct Op
    {
        uint64_t pc = 0, addr = 0, target = 0;
        int16_t src1 = -1, src2 = -1, dst = -1;
        uint8_t cls = 0;
        bool taken = false;
    };
    static Op ring[256];
    static int16_t regs[32];
    constexpr uint64_t Ops = 1 << 21;
    uint64_t x = 0x9e3779b97f4a7c15ull, stream = 0, chase = 1;
    uint32_t slot = 0;
    const uint64_t t0 = nowNs();
    for (uint64_t i = 0; i < Ops; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        const uint64_t r = x * 0x2545f4914f6cdd1dull;
        Op &op = ring[i & 255];
        op.pc = 0x10000 + slot * 4;
        op.taken = false;
        op.addr = 0;
        switch (slot) {
          case 0:
          case 4:
            op.cls = 1;
            stream += 64;
            op.addr = 0x40000000 + (stream & 0xffffff);
            op.dst = regs[r & 31];
            break;
          case 2:
            op.cls = 1;
            chase = chase * 6364136223846793005ull +
                    1442695040888963407ull;
            op.addr = 0x10000000 + ((chase >> 20) & 0x1fffc0);
            op.dst = int16_t(r & 31);
            break;
          case 6:
            op.cls = 2;
            op.addr = 0xc0000000 + ((r >> 8) & 0xfff8);
            break;
          case 7:
          case 9:
            op.cls = 3;
            op.taken = (r >> 33) % 100 < ((r & 1) ? 90u : 50u);
            op.target = op.pc + (op.taken ? 64 : 4);
            break;
          default:
            op.cls = 0;
            op.src1 = regs[(r >> 5) & 31];
            op.src2 = regs[(r >> 10) & 31];
            regs[(r >> 15) & 31] = int16_t(i & 1023);
            op.dst = int16_t((r >> 15) & 31);
            break;
        }
        slot = op.taken ? 0 : (slot + 1) % 12;
    }
    const double ns = double(nowNs() - t0) / double(Ops);
    // Keep the ring observable so the loop cannot be elided.
    volatile uint64_t sink = ring[x & 255].addr;
    (void)sink;
    return ns;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> n;
    for (const auto &w : workloads())
        n.push_back(w.name);
    return n;
}

wload::WorkloadProfile
programProfile(const std::string &program, uint64_t seed)
{
    wload::WorkloadProfile p = wload::profileByName(program);
    if (seed != DefaultSeed) {
        uint64_t s = mix(p.seed ^ mix(seed));
        p.seed = s ? s : 1;
    }
    return p;
}

Runner::Runner(const WorkloadSpec &s, uint64_t bench_seed,
               const std::string &out_dir,
               const std::vector<double> &reference_exact_ipc)
    : spec(s), seed(bench_seed),
      tracePath(out_dir + "/" + s.name + ".ktrc"),
      exact(reference_exact_ipc)
{
    if (spec.mode != Mode::Sampled)
        return;
    if (seed == DefaultSeed && exact.size() == spec.jobs.size())
        return;
    // Exact reference IPCs for this seed's trace: computed here,
    // outside every timed region.
    RoundSetup untimed;
    capture(nullptr, untimed);
    exact.clear();
    sim::RunConfig rc = spec.rc;
    rc.samplingMode = sim::SamplingMode::Off;
    for (const JobSpec &js : spec.jobs)
        exact.push_back(sim::Simulator::run(
                            sim::MachineConfig::byName(js.machine),
                            "trace:" + tracePath, mem400(), rc)
                            .ipc);
}

uint32_t
Runner::newJob(Tracer *t, const std::string &label)
{
    auto id = uint32_t(labels.size());
    std::string full = "r";
    full += std::to_string(roundNo);
    full += " ";
    full += label;
    labels.push_back(std::move(full));
    if (t)
        t->setJob(id);
    return id;
}

void
Runner::capture(Tracer *t, RoundSetup &setup)
{
    uint64_t t0 = nowNs();
    {
        Scope span(t, "trace.capture");
        wload::WorkloadPtr inner =
            wload::makeWorkload(programProfile(spec.jobs[0].program,
                                               seed));
        trace::CapturingWorkload cap(*inner, tracePath, seed);
        isa::MicroOp buf[256];
        uint64_t left = spec.traceOps;
        while (left) {
            left -= cap.nextBlock(
                buf, size_t(std::min<uint64_t>(left, 256)));
        }
        cap.finish();
    }
    setup.captureNs = nowNs() - t0;
    struct stat st {};
    if (::stat(tracePath.c_str(), &st) != 0)
        throw std::runtime_error("trace capture wrote no file");
    setup.traceBytes = uint64_t(st.st_size);
    setup.traceOps = spec.traceOps;
}

std::vector<JobOutcome>
Runner::round(Tracer *t, RoundSetup &setup)
{
    ++roundNo;
    setup = RoundSetup();
    if (spec.mode == Mode::Sampled) {
        newJob(t, "trace capture");
        capture(t, setup);
    }
    std::vector<JobOutcome> out;
    double calib_before = calibrationSample();
    for (size_t j = 0; j < spec.jobs.size(); ++j) {
        const JobSpec &js = spec.jobs[j];
        uint32_t id = newJob(t, js.machine + "/" + js.program);
        JobOutcome o;
        try {
            switch (spec.mode) {
              case Mode::Exact:
                o = runExact(js, t);
                break;
              case Mode::CkptReplay:
                o = runCkptReplay(js, t);
                break;
              case Mode::Sampled:
                o = runSampled(j, js, t);
                break;
            }
        } catch (const std::exception &e) {
            o.ok = false;
            o.error = std::string("threw: ") + e.what();
        }
        const double calib_after = calibrationSample();
        o.calibNs = 0.5 * (calib_before + calib_after);
        calib_before = calib_after;
        o.jobId = id;
        o.spec = j;
        o.kind = js.machine;
        o.program = js.program;
        out.push_back(std::move(o));
    }
    return out;
}

JobOutcome
Runner::runExact(const JobSpec &js, Tracer *t)
{
    JobOutcome o;
    Scope job(t, "bench.job");

    uint64_t t0 = nowNs();
    Rig rig(sim::MachineConfig::byName(js.machine),
            programProfile(js.program, seed), spec.rc, t);
    sim::Session &session = *rig.session;
    uint64_t t1 = nowNs();
    o.setupNs = t1 - t0;

    const uint64_t allocs0 = warmup(session, t);
    while (!session.finished()) {
        uint64_t a = nowNs();
        {
            Scope s(t, "sim.step");
            session.step(StepCycles);
        }
        o.advanceNs += nowNs() - a;
    }
    sim::RunResult r = finish(o, session, allocs0, t);
    o.wallNs = nowNs() - t1;

    record(o, r, session);
    o.pulled = rig.pulled();
    return o;
}

JobOutcome
Runner::runCkptReplay(const JobSpec &js, Tracer *t)
{
    JobOutcome o;
    const sim::MachineConfig machine = sim::MachineConfig::byName(js.machine);
    const wload::WorkloadProfile profile = programProfile(js.program, seed);
    Scope job(t, "bench.job");

    uint64_t t0 = nowNs();
    Rig live_rig(machine, profile, spec.rc, t);
    Rig replay_rig(machine, profile, spec.rc, t);
    sim::Session &live = *live_rig.session;
    sim::Session &replay = *replay_rig.session;
    uint64_t t1 = nowNs();
    o.setupNs = t1 - t0;

    const uint64_t allocs0 = warmup(live, t);
    const uint64_t interval = spec.rc.auditIntervalInsts;
    std::vector<ckpt::Checkpoint> images;
    std::vector<uint64_t> live_digest;
    while (!live.finished()) {
        uint64_t committed = live.measuredCommitted();
        uint64_t target = (committed / interval + 1) * interval;
        size_t records = live.auditRecords().size();
        uint64_t a = nowNs();
        {
            Scope s(t, "sim.step");
            live.runFor(target - committed);
        }
        o.advanceNs += nowNs() - a;
        if (live.auditRecords().size() != records + 1)
            throw std::runtime_error("audit boundary not reached");
        {
            Scope s(t, "ckpt.checkpoint");
            images.push_back(live.checkpoint());
        }
        Scope s(t, "obs.digest");
        live_digest.push_back(live.stateDigest());
    }
    sim::RunResult r = finish(o, live, allocs0, t);

    // Replay, as kilodiff's bisect does: restore every image into the
    // second Session; its digest must equal the live digest taken
    // with the image and its audit chain must resume at the live
    // record. Then step it to the next boundary, where it must
    // record exactly the live audit record.
    size_t mismatches = 0;
    for (size_t i = 0; i < images.size(); ++i) {
        {
            Scope s(t, "ckpt.restore");
            replay.restore(images[i]);
        }
        uint64_t digest;
        {
            Scope s(t, "obs.digest");
            digest = replay.stateDigest();
        }
        if (i >= r.audit.size() || digest != live_digest[i] ||
            replay.auditRolling() != r.audit[i].rolling) {
            ++mismatches;
            continue;
        }
        if (i + 1 == images.size())
            break;
        uint64_t from = replay.measuredCommitted();
        uint64_t from_cycles = replay.measuredCycles();
        uint64_t a = nowNs();
        {
            Scope s(t, "sim.step");
            replay.runFor((i + 2) * interval - from);
        }
        o.advanceNs += nowNs() - a;
        o.replayInsts += replay.measuredCommitted() - from;
        o.replayCycles += replay.measuredCycles() - from_cycles;
        const auto &rec = replay.auditRecords();
        const obs::AuditRecord &want = r.audit[i + 1];
        if (rec.size() != 1 || rec[0].insts != want.insts ||
            rec[0].cycle != want.cycle || rec[0].state != want.state ||
            rec[0].rolling != want.rolling)
            ++mismatches;
    }
    o.wallNs = nowNs() - t1;

    record(o, r, live);
    o.pulled = live_rig.pulled() + replay_rig.pulled();
    for (const auto &img : images)
        o.ckptBytes.push_back(img.bytes.size());
    o.auditRolling = r.auditRolling;
    if (o.ok && images.size() != r.audit.size()) {
        o.ok = false;
        o.error = "checkpoint count != audit record count";
    }
    if (o.ok && mismatches) {
        o.ok = false;
        o.error = std::to_string(mismatches) +
                  " restored checkpoints disagree with the live run";
    }
    return o;
}

JobOutcome
Runner::runSampled(size_t j, const JobSpec &js, Tracer *t)
{
    JobOutcome o;
    const sim::MachineConfig machine = sim::MachineConfig::byName(js.machine);
    Scope job(t, "bench.job");

    uint64_t t0 = nowNs();
    std::optional<trace::TraceWorkload> tr;
    {
        Scope s(t, "trace.open");
        tr.emplace(tracePath);
    }
    std::optional<TracedWorkload> traced;
    if (t)
        traced.emplace(*tr, *t, "trace.decode");
    wload::Workload &use = t ? static_cast<wload::Workload &>(*traced)
                             : *tr;
    uint64_t t1 = nowNs();
    o.setupNs = t1 - t0;

    obs::Profiler prof;
    sample::SampledResult res;
    {
        Scope s(t, "sample.run");
        res = sample::runSampled(machine, use, mem400(), spec.rc,
                                 t ? &prof : nullptr);
    }
    o.wallNs = o.advanceNs = nowNs() - t1;

    o.row = sim::runResultJson(res.result);
    o.snap = res.result.snapshot;
    o.insts = spec.rc.measureInsts;
    o.cycles = res.result.stats.cycles;
    o.pulled = traced ? traced->pulled() : 0;
    o.totalIntervals = res.totalIntervals;
    o.simulatedIntervals = res.simulatedIntervals;
    o.detailInsts = res.detailInsts;
    o.warmInsts = res.warmInsts;
    o.skippedInsts = res.skippedInsts;
    for (const auto &ph : prof.phases()) {
        if (ph.name == "fingerprint")
            o.fingerprintNs = double(ph.ns);
        else if (ph.name == "cluster")
            o.clusterNs = double(ph.ns);
        else if (ph.name == "simulate")
            o.simulateNs = double(ph.ns);
        else if (ph.name == "reconstruct")
            o.reconstructNs = double(ph.ns);
    }
    const double ref = j < exact.size() ? exact[j] : 0.0;
    o.ipcErrPct = ref > 0 ? 100.0 * std::fabs(res.result.ipc - ref) / ref
                          : 100.0;
    // The 2% bound is what CI pins, on exactly the seed-0 trace. Other
    // seeds' traces carry no such claim (a few of them miss by up to
    // ~3%); there the error is reported, not enforced.
    if (res.result.aborted) {
        o.ok = false;
        o.error = "sampled run aborted";
    } else if (!(res.result.ipc > 0) ||
               res.result.stats.committed != spec.rc.measureInsts) {
        o.ok = false;
        o.error = "sampled estimate does not cover measureInsts";
    } else if (seed == DefaultSeed && o.ipcErrPct > SampledErrPinPct) {
        o.ok = false;
        o.error = "sampled IPC error " + std::to_string(o.ipcErrPct) +
                  "% exceeds the 2% pinned for this trace";
    }
    return o;
}

sim::RunResult
Runner::canonical(size_t j) const
{
    const JobSpec &js = spec.jobs[j];
    const sim::MachineConfig machine = sim::MachineConfig::byName(js.machine);
    if (spec.mode == Mode::Sampled)
        return sim::Simulator::run(machine, "trace:" + tracePath,
                                   mem400(), spec.rc);
    return sim::Simulator::run(machine, js.program, mem400(), spec.rc);
}

} // namespace perfbench
