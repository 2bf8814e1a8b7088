/**
 * @file
 * perfbench: end-to-end host-speed benchmark of the simulator.
 *
 *     perfbench --workload W --seed N --seconds S --trace 0|1
 *               [--out-dir D] [--ref-dir R]
 *     perfbench --record-reference R [--out-dir D]
 *
 * Runs rounds of workload W (jobs one at a time, single-threaded) for
 * about S seconds, checks every job's output, and prints the metrics
 * as the last line of stdout (one JSON object). --trace 0 reports the
 * end-to-end metrics; --trace 1 splits the time between an untraced
 * and a traced phase and reports the per-layer metrics, writes the
 * spans as Chrome trace-event JSON to D/<W>.trace.json and prints a
 * per-layer self-time table. --record-reference rewrites the
 * default-seed reference rows in R from the canonical by-name
 * Simulator::run path. See README.md beside this file.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <unistd.h>

#include "jobs.hh"
#include "report.hh"
#include "src/sim/sweep_engine.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    uint64_t seed = DefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string refDir = "perfbench/reference";
    std::string recordDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir D] [--ref-dir R]\n"
                 "       perfbench --record-reference R [--out-dir D]\n"
                 "workloads:";
    for (const auto &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--out-dir") {
                o.outDir = v;
            } else if (a == "--ref-dir") {
                o.refDir = v;
            } else if (a == "--record-reference") {
                o.recordDir = v;
            } else {
                usage("unknown option " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.recordDir.empty()) {
        if (!have_workload || !findWorkload(o.workload))
            usage("--workload names no workload");
        if (!(o.seconds > 0))
            usage("--seconds must be positive");
    }
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/**
 * Peak resident memory of this process image. VmHWM, not getrusage's
 * ru_maxrss, which keeps the high-water mark of the process that
 * exec'd us (a Python launcher, say) across execve.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Rounds of one phase: at least @p min_rounds, and no new round
 *  once another would likely end past @p seconds. */
std::vector<Round>
runPhase(Runner &runner, Tracer *tracer, double seconds,
         size_t min_rounds)
{
    std::vector<Round> rounds;
    const uint64_t t0 = nowNs();
    std::vector<double> round_ns;
    for (;;) {
        double elapsed = double(nowNs() - t0);
        if (rounds.size() >= min_rounds &&
            elapsed + median(round_ns) > seconds * 1e9)
            break;
        uint64_t r0 = nowNs();
        Round r;
        r.jobs = runner.round(tracer, r.setup);
        round_ns.push_back(double(nowNs() - r0));
        rounds.push_back(std::move(r));
    }
    return rounds;
}

int
recordReference(const Options &o)
{
    std::filesystem::create_directories(o.recordDir);
    std::filesystem::create_directories(o.outDir);
    for (const auto &name : workloadNames()) {
        const WorkloadSpec &spec = *findWorkload(name);
        Runner runner(spec, DefaultSeed, o.outDir, {});
        std::ofstream rows(o.recordDir + "/" + name + ".jsonl");
        for (size_t j = 0; j < spec.jobs.size(); ++j)
            rows << kilo::sim::runResultJson(runner.canonical(j))
                 << "\n";
        if (spec.mode == Mode::Sampled) {
            std::ofstream ipc(o.recordDir + "/" + name +
                              "_exact_ipc.txt");
            for (double v : runner.exactIpc()) {
                char num[64];
                std::snprintf(num, sizeof num, "%.17g\n", v);
                ipc << num;
            }
        }
        std::cerr << "recorded " << name << "\n";
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    std::filesystem::create_directories(opt.outDir);
    if (!opt.recordDir.empty())
        return recordReference(opt);

    const WorkloadSpec &spec = *findWorkload(opt.workload);
    const bool default_seed = opt.seed == DefaultSeed;

    // Default-seed references; a missing file fails the run's checks.
    std::vector<std::string> ref_rows;
    std::vector<double> ref_ipc;
    if (default_seed) {
        ref_rows = readLines(opt.refDir + "/" + spec.name + ".jsonl");
        if (spec.mode == Mode::Sampled)
            for (const auto &l : readLines(opt.refDir + "/" + spec.name +
                                           "_exact_ipc.txt"))
                ref_ipc.push_back(std::stod(l));
    }

    std::printf("# host: nproc=%ld cpu=\"%s\" compiler=\"%s\" "
                "build=%s calib_ns_per_op=%.3f\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                calibrationSample());
    std::printf("# workload %s seed %llu: %zu jobs per round, one at "
                "a time; mem-400; caches functionally prewarmed plus "
                "%llu warm-up insts; simulated model unvalidated "
                "against hardware\n",
                spec.name.c_str(), (unsigned long long)opt.seed,
                spec.jobs.size(),
                (unsigned long long)spec.rc.warmupInsts);

    Runner runner(spec, opt.seed, opt.outDir, ref_ipc);

    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::vector<Round> untraced = runPhase(runner, nullptr, untraced_s, 2);
    Tracer tracer;
    std::vector<Round> traced;
    if (opt.trace)
        traced = runPhase(runner, &tracer, opt.seconds - untraced_s, 2);

    // ---- output checks
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    const std::vector<JobOutcome> &first = untraced.front().jobs;
    auto check_round = [&](const Round &r, const char *phase) {
        for (const auto &j : r.jobs) {
            ++attempted;
            std::string why = j.error;
            if (j.ok && j.row != first[j.spec].row)
                why = std::string(phase) +
                      " row differs from the first untraced round";
            if (j.ok && why.empty() && default_seed &&
                (j.spec >= ref_rows.size() || j.row != ref_rows[j.spec]))
                why = "row differs from the recorded reference";
            if (!why.empty()) {
                ++failed;
                errors.push_back(j.kind + "/" + j.program + ": " + why);
            }
        }
    };
    for (const Round &r : untraced)
        check_round(r, "untraced");
    for (const Round &r : traced)
        check_round(r, "traced");
    if (opt.trace) {
        size_t bad = checkSpanCoverage(traced, tracer);
        failed += bad;
        if (bad)
            errors.push_back(std::to_string(bad) +
                             " jobs' span self times do not sum to "
                             "their job span");
    }
    if (default_seed) {
        // Once per run: the canonical by-name Simulator::run path.
        ++attempted;
        kilo::sim::RunResult canon = runner.canonical(0);
        bool same = kilo::sim::runResultJson(canon) == first[0].row;
        if (spec.mode == Mode::CkptReplay)
            same = same && canon.auditRolling == first[0].auditRolling;
        if (!same) {
            ++failed;
            errors.push_back("Session row differs from by-name "
                             "Simulator::run");
        }
    }

    // ---- report
    std::printf("# %zu untraced rounds", untraced.size());
    if (opt.trace)
        std::printf(", %zu traced rounds", traced.size());
    std::printf("; jobs of the first round:\n");
    for (const auto &j : first)
        std::printf("#   %-7s %-7s %8.3f s  %7.3f Minst/s  %s\n",
                    j.kind.c_str(), j.program.c_str(),
                    double(j.setupNs + j.wallNs) / 1e9,
                    j.advanceNs ? 1e3 * double(j.insts) /
                                      double(j.advanceNs)
                                : 0.0,
                    j.row.c_str());
    for (size_t i = 0; i < untraced.size(); ++i) {
        const RoundFigures f = roundFigures(untraced[i]);
        std::printf("# untraced round %zu: %.4f Minst/s, wall %.4f s, "
                    "setup %.4f s, %.4f inst/kcal, %.4f Mcal\n",
                    i, f.mops, f.wallS, f.setupS, f.normThroughput,
                    f.normWall);
    }
    for (const auto &e : errors)
        std::printf("# FAIL %s\n", e.c_str());
    for (const auto &j : first)
        if (j.ipcErrPct > SampledErrPinPct)
            std::printf("# NOTE %s/%s: sampled IPC error %.3f%% exceeds "
                        "the %.0f%% CI pins on the seed-0 trace\n",
                        j.kind.c_str(), j.program.c_str(), j.ipcErrPct,
                        SampledErrPinPct);

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = perLayer(untraced, traced, tracer);
        printSelfTimeTable(stdout, spec.name, traced, tracer);
        std::string chrome = opt.outDir + "/" + spec.name + ".trace.json";
        tracer.writeChrome(chrome, runner.jobLabels());
        std::printf("# spans: %zu, Chrome trace-event JSON in %s\n",
                    tracer.spans().size(), chrome.c_str());
    } else {
        metrics = endToEnd(untraced, peakRssMb());
    }
    for (const auto &m : metrics)
        std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}
