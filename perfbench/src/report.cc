#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

namespace perfbench
{

namespace
{

const char *const StallReasons[] = {"frontend", "empty",    "mem",
                                    "exec",     "depend",   "issue",
                                    "mshr",     "decoupled"};

const char *const Kinds[] = {"r10-64", "kilo", "dkip"};

double
u(const kilo::stats::Snapshot &s, const char *name)
{
    return s.value(name);
}

/** num/den scaled, 0 when the layer was never exercised. */
double
ratio(double num, double den, double scale = 1.0)
{
    return den > 0 ? scale * num / den : 0.0;
}

bool
is(const Span &s, const char *name)
{
    return std::strcmp(s.name, name) == 0;
}

double
roundTotalNs(const Round &r)
{
    double ns = double(r.setup.captureNs);
    for (const auto &j : r.jobs)
        ns += double(j.setupNs + j.wallNs);
    return ns;
}

} // anonymous namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = size_t(std::ceil(q * double(v.size())));
    return v[rank ? rank - 1 : 0];
}

RoundFigures
roundFigures(const Round &r)
{
    RoundFigures f;
    double insts = 0, adv = 0, adv_cal = 0, wall = 0, wall_cal = 0;
    double setup = double(r.setup.captureNs);
    for (const auto &j : r.jobs) {
        insts += double(j.insts + j.replayInsts);
        adv += double(j.advanceNs);
        adv_cal += double(j.advanceNs) / j.calibNs;
        wall += double(j.wallNs);
        wall_cal += double(j.wallNs) / j.calibNs;
        setup += double(j.setupNs);
    }
    f.mops = ratio(insts, adv, 1e3);
    f.wallS = wall / 1e9;
    f.setupS = setup / 1e9;
    f.normThroughput = ratio(insts, adv_cal, 1e3);
    f.normWall = wall_cal / 1e6;
    return f;
}

std::vector<Metric>
endToEnd(const std::vector<Round> &untraced, double peak_rss_mb)
{
    std::vector<double> thr, wall, setup;
    for (const Round &r : untraced) {
        RoundFigures f = roundFigures(r);
        thr.push_back(f.normThroughput);
        wall.push_back(f.normWall);
        setup.push_back(f.setupS);
    }
    return {{"norm_throughput", "inst/kcal", median(thr)},
            {"norm_wall", "Mcal", median(wall)},
            {"setup_s", "s", median(setup)},
            {"peak_rss_mb", "MB", peak_rss_mb}};
}

std::vector<Metric>
perLayer(const std::vector<Round> &untraced,
         const std::vector<Round> &traced, const Tracer &tracer)
{
    std::vector<Metric> out;
    auto put = [&](const std::string &name, const char *unit,
                   double value) {
        out.push_back({name, unit, std::isfinite(value) ? value : 0.0});
    };

    const std::vector<Span> &spans = tracer.spans();
    const std::vector<uint64_t> self = tracer.selfTimes();
    std::map<uint32_t, const JobOutcome *> byJob;
    for (const Round &r : traced)
        for (const auto &j : r.jobs)
            byJob[j.jobId] = &j;

    // ---- span aggregates
    double pull_ns = 0, pull_in_advance_ns = 0, advance_ns = 0;
    double decode_ns = 0, restore_ns = 0, skip_in_restore_ns = 0;
    std::map<std::string, double> step_self_ns;
    std::map<uint32_t, double> skip_ns_per_job;
    std::vector<double> ctor_ms, warm_ms, fin_ms, snap_us, ckpt_ms,
        restore_ms, digest_us;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double dur = double(s.end - s.start);
        const Span *parent =
            s.parent >= 0 ? &spans[size_t(s.parent)] : nullptr;
        if (is(s, "wload.pull")) {
            pull_ns += dur;
            if (parent &&
                (is(*parent, "sim.step") || is(*parent, "sim.warmup")))
                pull_in_advance_ns += dur;
        } else if (is(s, "trace.decode")) {
            decode_ns += dur;
        } else if (is(s, "wload.skip")) {
            skip_ns_per_job[s.job] += dur;
            if (parent && is(*parent, "ckpt.restore"))
                skip_in_restore_ns += dur;
        } else if (is(s, "sim.step")) {
            advance_ns += dur;
            auto job = byJob.find(s.job);
            if (job != byJob.end())
                step_self_ns[job->second->kind] += double(self[i]);
        } else if (is(s, "sim.warmup")) {
            advance_ns += dur;
            warm_ms.push_back(dur / 1e6);
        } else if (is(s, "sim.ctor")) {
            ctor_ms.push_back(dur / 1e6);
        } else if (is(s, "sim.finish")) {
            fin_ms.push_back(dur / 1e6);
        } else if (is(s, "stats.snapshot")) {
            snap_us.push_back(dur / 1e3);
        } else if (is(s, "ckpt.checkpoint")) {
            ckpt_ms.push_back(dur / 1e6);
        } else if (is(s, "ckpt.restore")) {
            restore_ns += dur;
            restore_ms.push_back(dur / 1e6);
        } else if (is(s, "obs.digest")) {
            digest_us.push_back(dur / 1e3);
        }
    }

    // ---- deterministic counts of the exact jobs' measured regions
    std::map<std::string, double> kind_insts, kind_cycles;
    double insts = 0, all_committed = 0, pulled = 0, decoded = 0;
    double arena = 0, fetched = 0, squashed = 0, mispredicts = 0;
    double accesses = 0, l1 = 0, l2 = 0, fills = 0, merges = 0,
           mshr_peak = 0, slots = 0;
    std::map<std::string, double> stall;
    double dkip_insts = 0, dkip_mp = 0, dkip_llib = 0, dkip_llrf = 0,
           dkip_ckpts = 0, dkip_jobs = 0, kilo_insts = 0, kilo_sliq = 0;
    double jobs = 0;
    std::vector<double> skip_ms, ckpt_bytes;
    std::vector<double> fp_ms, cl_ms, sim_ms, rec_ms;
    double detail = 0, warm = 0, skipped = 0, sampled_jobs = 0,
           sim_intervals = 0, ipc_err = 0;
    for (const Round &r : traced) {
        for (const auto &j : r.jobs) {
            ++jobs;
            skip_ms.push_back(skip_ns_per_job[j.jobId] / 1e6);
            for (uint64_t b : j.ckptBytes)
                ckpt_bytes.push_back(double(b));
            if (j.totalIntervals) {
                ++sampled_jobs;
                decoded += double(j.pulled);
                fp_ms.push_back(j.fingerprintNs / 1e6);
                cl_ms.push_back(j.clusterNs / 1e6);
                sim_ms.push_back(j.simulateNs / 1e6);
                rec_ms.push_back(j.reconstructNs / 1e6);
                detail += double(j.detailInsts);
                warm += double(j.warmInsts);
                skipped += double(j.skippedInsts);
                sim_intervals += double(j.simulatedIntervals);
                continue;
            }
            const auto &s = j.snap;
            double n = double(j.insts);
            insts += n;
            kind_insts[j.kind] += n + double(j.replayInsts);
            kind_cycles[j.kind] += double(j.cycles + j.replayCycles);
            all_committed +=
                n + double(j.warmupInsts) + double(j.replayInsts);
            pulled += double(j.pulled);
            arena += double(j.arenaAllocs);
            fetched += u(s, "fetched");
            squashed += u(s, "squashed");
            mispredicts += u(s, "mispredicts");
            accesses += u(s, "mem_accesses");
            l1 += u(s, "l1_misses");
            l2 += u(s, "l2_misses");
            fills += u(s, "mem_fills");
            merges += u(s, "mshr_merges");
            mshr_peak = std::max(mshr_peak, u(s, "mshr_peak"));
            slots += double(j.commitWidth) * double(j.cycles);
            for (const char *reason : StallReasons)
                stall[reason] +=
                    u(s, ("stall_" + std::string(reason)).c_str());
            if (j.kind == "dkip") {
                ++dkip_jobs;
                dkip_insts += n;
                dkip_mp += u(s, "mp_executed");
                dkip_llib += u(s, "llib_inserted_int") +
                             u(s, "llib_inserted_fp");
                dkip_llrf += u(s, "llrf_conflict_stalls");
                dkip_ckpts += u(s, "checkpoints_taken");
            } else if (j.kind == "kilo") {
                kilo_insts += n;
                kilo_sliq += u(s, "sliq_inserted_int") +
                             u(s, "sliq_inserted_fp");
            }
        }
    }
    for (const Round &r : untraced)
        for (const auto &j : r.jobs)
            ipc_err = std::max(ipc_err, j.ipcErrPct);
    for (const Round &r : traced)
        for (const auto &j : r.jobs)
            ipc_err = std::max(ipc_err, j.ipcErrPct);

    std::vector<double> capture_s;
    double trace_bytes = 0, trace_ops = 0;
    for (const Round &r : traced) {
        if (!r.setup.traceOps)
            continue;
        capture_s.push_back(double(r.setup.captureNs) / 1e9);
        trace_bytes = double(r.setup.traceBytes);
        trace_ops = double(r.setup.traceOps);
    }

    std::vector<double> untraced_round, traced_round;
    for (const Round &r : untraced)
        untraced_round.push_back(roundTotalNs(r));
    for (const Round &r : traced)
        traced_round.push_back(roundTotalNs(r));

    // ---- wload / trace
    put("wload.pull_ns_per_op", "ns/op", ratio(pull_ns, pulled));
    put("wload.pull_share", "ratio",
        ratio(pull_in_advance_ns, advance_ns));
    put("wload.pulls_per_commit", "ratio", ratio(pulled, all_committed));
    put("wload.skip_ms", "ms", median(skip_ms));
    put("ckpt.restore_skip_share", "ratio",
        ratio(skip_in_restore_ns, restore_ns));
    put("trace.decode_ns_per_op", "ns/op", ratio(decode_ns, decoded));
    put("trace.capture_s", "s", median(capture_s));
    put("trace.bytes_per_op", "B/op", ratio(trace_bytes, trace_ops));

    // ---- core (engine self time = step span minus workload pulls)
    for (const char *k : Kinds) {
        put(std::string("core.self_ns_per_op.") + k, "ns/op",
            ratio(step_self_ns[k], kind_insts[k]));
        put(std::string("core.self_ns_per_cycle.") + k, "ns/cycle",
            ratio(step_self_ns[k], kind_cycles[k]));
    }
    put("core.arena_allocs_per_commit", "ratio", ratio(arena, insts));
    put("core.fetched_per_commit", "ratio", ratio(fetched, insts));
    put("core.squashed_per_kop", "1/kop", ratio(squashed, insts, 1e3));
    for (const char *reason : StallReasons)
        put(std::string("core.stall.") + reason + "_share", "ratio",
            ratio(stall[reason], slots));

    // ---- pred / mem
    put("pred.mispredicts_per_kop", "1/kop",
        ratio(mispredicts, insts, 1e3));
    put("mem.accesses_per_kop", "1/kop", ratio(accesses, insts, 1e3));
    put("mem.l1_misses_per_kop", "1/kop", ratio(l1, insts, 1e3));
    put("mem.l2_misses_per_kop", "1/kop", ratio(l2, insts, 1e3));
    put("mem.fills_per_kop", "1/kop", ratio(fills, insts, 1e3));
    put("mem.mshr_merges_per_kop", "1/kop", ratio(merges, insts, 1e3));
    put("mem.mshr_peak", "count", mshr_peak);

    // ---- sim / stats phases (medians over spans)
    put("sim.ctor_ms", "ms", median(ctor_ms));
    put("sim.warmup_ms", "ms", median(warm_ms));
    put("sim.finish_ms", "ms", median(fin_ms));
    put("stats.snapshot_us", "us", median(snap_us));
    put("bench.traced_jobs", "count", jobs);

    // ---- dkip / kilo_proc
    put("dkip.mp_fraction", "ratio", ratio(dkip_mp, dkip_insts));
    put("dkip.llib_inserted_per_kop", "1/kop",
        ratio(dkip_llib, dkip_insts, 1e3));
    put("dkip.llrf_conflict_stalls", "count",
        ratio(dkip_llrf, dkip_jobs));
    put("dkip.checkpoints_taken", "count", ratio(dkip_ckpts, dkip_jobs));
    put("kilo_proc.sliq_inserted_per_kop", "1/kop",
        ratio(kilo_sliq, kilo_insts, 1e3));

    // ---- sample
    double covered = detail + warm + skipped;
    put("sample.fingerprint_ms", "ms", median(fp_ms));
    put("sample.cluster_ms", "ms", median(cl_ms));
    put("sample.simulate_ms", "ms", median(sim_ms));
    put("sample.reconstruct_ms", "ms", median(rec_ms));
    put("sample.detail_share", "ratio", ratio(detail, covered));
    put("sample.warm_share", "ratio", ratio(warm, covered));
    put("sample.skip_share", "ratio", ratio(skipped, covered));
    put("sample.simulated_intervals", "count",
        ratio(sim_intervals, sampled_jobs));
    put("sample.ipc_err_pct", "%", ipc_err);

    // ---- ckpt / obs
    put("ckpt.checkpoint_ms_p50", "ms", percentile(ckpt_ms, 0.5));
    put("ckpt.checkpoint_ms_p90", "ms", percentile(ckpt_ms, 0.9));
    put("ckpt.bytes", "B", median(ckpt_bytes));
    put("ckpt.restore_ms_p50", "ms", percentile(restore_ms, 0.5));
    put("ckpt.restore_ms_p90", "ms", percentile(restore_ms, 0.9));
    put("ckpt.latency_samples", "count", double(restore_ms.size()));
    put("obs.state_digest_us_p50", "us", percentile(digest_us, 0.5));
    put("obs.state_digest_us_p90", "us", percentile(digest_us, 0.9));

    // ---- host / bench
    std::vector<double> calib, mops, wall;
    for (const Round &r : untraced) {
        RoundFigures f = roundFigures(r);
        mops.push_back(f.mops);
        wall.push_back(f.wallS);
        for (const auto &j : r.jobs)
            calib.push_back(j.calibNs);
    }
    put("host.mops", "Minst/s", median(mops));
    put("host.wall_s", "s", median(wall));
    put("host.calib_ns_per_op", "ns/op", median(calib));
    double base = median(untraced_round);
    put("bench.trace_overhead_pct", "%",
        base > 0 ? 100.0 * (median(traced_round) / base - 1.0) : 0.0);
    return out;
}

size_t
checkSpanCoverage(const std::vector<Round> &traced, const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<uint64_t> self = tracer.selfTimes();
    std::map<uint32_t, double> root_ns, self_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0)
            root_ns[spans[i].job] +=
                double(spans[i].end - spans[i].start);
        self_ns[spans[i].job] += double(self[i]);
    }
    size_t bad = 0;
    for (const Round &r : traced) {
        for (const auto &j : r.jobs) {
            double root = root_ns[j.jobId];
            if (root <= 0 || std::fabs(self_ns[j.jobId] - root) >
                                 1e-9 * root + 1.0)
                ++bad;
        }
    }
    return bad;
}

void
printSelfTimeTable(std::FILE *f, const std::string &workload,
                   const std::vector<Round> &traced,
                   const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<uint64_t> self = tracer.selfTimes();
    std::map<uint32_t, std::string> kind_of;
    std::map<std::string, double> jobs_of_kind;
    for (const Round &r : traced)
        for (const auto &j : r.jobs) {
            kind_of[j.jobId] = j.kind;
            ++jobs_of_kind[j.kind];
        }
    std::vector<std::string> cols;
    for (const char *k : Kinds)
        if (jobs_of_kind.count(k))
            cols.push_back(k);
    std::set<std::string> names;
    std::map<std::string, std::map<std::string, double>> cell;
    std::map<std::string, double> total;
    for (size_t i = 0; i < spans.size(); ++i) {
        auto k = kind_of.find(spans[i].job);
        if (k == kind_of.end())
            continue;  // per-round set-up (trace capture), not a job
        names.insert(spans[i].name);
        cell[spans[i].name][k->second] += double(self[i]);
        total[k->second] += double(self[i]);
    }
    std::fprintf(f,
                 "\nper-layer self time, workload %s "
                 "(ms per job, share of job time; traced rounds)\n",
                 workload.c_str());
    std::fprintf(f, "%-18s", "span");
    for (const auto &c : cols)
        std::fprintf(f, " %18s", c.c_str());
    std::fputc('\n', f);
    for (const auto &n : names) {
        std::fprintf(f, "%-18s", n.c_str());
        for (const auto &c : cols) {
            double ns = cell[n][c];
            std::fprintf(f, " %10.3f %6.2f%%", ns / 1e6 / jobs_of_kind[c],
                         total[c] > 0 ? 100.0 * ns / total[c] : 0.0);
        }
        std::fputc('\n', f);
    }
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
        s += (i ? ", \"" : "\"") + metrics[i].name +
             "\": {\"value\": " + num + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
