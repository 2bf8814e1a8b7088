/**
 * @file
 * Benchmark-trajectory comparator.
 *
 *     bench_compare [--max-regress PCT] [--metric cpu_time|real_time]
 *                   BASELINE.json CURRENT.json
 *
 * Diffs two google-benchmark JSON outputs — typically the latest
 * committed bench/trajectory/BENCH_prNN.json snapshot against the
 * bench_micro.json CI just produced — and prints one delta row per
 * benchmark:
 *
 *     benchmark                         baseline    current    delta
 *     BM_DkipCore100kRun              1234567 ns 1250000 ns    +1.2% noise
 *     BM_FetchBatched                      (new) 1000000 ns        -
 *
 * A file run with --benchmark_repetitions contributes each
 * benchmark's _median aggregate (not the first of its same-named
 * repetition rows), and its _cv aggregate sets the noise band: a
 * delta smaller than max(cv_baseline, cv_current) is marked "noise"
 * and never counts as a regression. A file without aggregates (one
 * iteration row per benchmark) contributes that row and no band.
 * Benchmarks present in only one file are reported but never fail
 * the check. With --max-regress PCT the exit status is 1 when any
 * common benchmark's metric grew by more than PCT percent outside
 * its noise band — CI wires this as a NON-BLOCKING step, because
 * trajectory snapshots are recorded on the author's machine and
 * cross-host deltas are advisory (bench/trajectory/README.md).
 *
 * Exit codes: 0 ok / within threshold, 1 regression past threshold,
 * 2 usage or unreadable/unparseable input.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/parse.hh"

namespace
{

/** One benchmark's comparable figures from a google-benchmark file. */
struct BenchRow
{
    std::string name;     ///< run name (no aggregate suffix)
    double realTimeNs = 0;
    double cpuTimeNs = 0;
    double realCv = 0;    ///< repetitions' cv (0: no band)
    double cpuCv = 0;
};

/** Multiplier from a google-benchmark time_unit to nanoseconds. */
double
unitToNs(const std::string &unit)
{
    if (unit == "ns")
        return 1;
    if (unit == "us")
        return 1e3;
    if (unit == "ms")
        return 1e6;
    if (unit == "s")
        return 1e9;
    return 1; // unknown units compare as-is rather than aborting
}

/**
 * Extract the string value of `"key": "value"` within @p obj, or ""
 * when absent. The google-benchmark writer emits flat one-level
 * objects per benchmark, so targeted key scans are unambiguous.
 */
std::string
stringField(const std::string &obj, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = obj.find(needle);
    if (at == std::string::npos)
        return "";
    size_t q1 = obj.find('"', at + needle.size());
    if (q1 == std::string::npos)
        return "";
    size_t q2 = obj.find('"', q1 + 1);
    if (q2 == std::string::npos)
        return "";
    return obj.substr(q1 + 1, q2 - q1 - 1);
}

/** Extract the numeric value of `"key": 123.4`, or NaN when absent. */
double
numberField(const std::string &obj, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = obj.find(needle);
    if (at == std::string::npos)
        return std::nan("");
    size_t v = at + needle.size();
    while (v < obj.size() && (obj[v] == ' ' || obj[v] == '\t'))
        ++v;
    return std::strtod(obj.c_str() + v, nullptr);
}

BenchRow *
findRow(std::vector<BenchRow> &rows, const std::string &name)
{
    for (auto &r : rows)
        if (r.name == name)
            return &r;
    return nullptr;
}

/**
 * Parse the "benchmarks" array of a google-benchmark JSON document
 * into comparable rows. Returns false when the file cannot be read
 * or holds no benchmarks array.
 */
bool
loadBenchmarks(const std::string &path, std::vector<BenchRow> &out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "bench_compare: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string text = ss.str();

    size_t arr = text.find("\"benchmarks\"");
    if (arr == std::string::npos ||
        (arr = text.find('[', arr)) == std::string::npos) {
        std::fprintf(stderr,
                     "bench_compare: %s has no \"benchmarks\" array\n",
                     path.c_str());
        return false;
    }

    // Walk the array object by object; per-benchmark objects are
    // flat, so brace depth 1 relative to the array brackets the
    // object exactly.
    size_t pos = arr + 1;
    while (pos < text.size()) {
        size_t open = text.find_first_of("{]", pos);
        if (open == std::string::npos || text[open] == ']')
            break;
        int depth = 1;
        size_t close = open + 1;
        while (close < text.size() && depth > 0) {
            if (text[close] == '{')
                ++depth;
            else if (text[close] == '}')
                --depth;
            ++close;
        }
        std::string obj = text.substr(open, close - open);
        pos = close;

        std::string run = stringField(obj, "run_name");
        if (run.empty())
            run = stringField(obj, "name");
        std::string type = stringField(obj, "run_type");
        std::string agg = stringField(obj, "aggregate_name");
        double real = numberField(obj, "real_time");
        double cpu = numberField(obj, "cpu_time");
        if (run.empty() || !std::isfinite(cpu))
            continue;
        BenchRow *row = findRow(out, run);
        if ((type == "aggregate" && agg == "median") ||
            (type == "iteration" && !row)) {
            // The first repetition stands in until the median
            // arrives; files without repetitions have only that row.
            if (!row) {
                out.push_back(BenchRow{run});
                row = &out.back();
            }
            double scale = unitToNs(stringField(obj, "time_unit"));
            row->realTimeNs = real * scale;
            row->cpuTimeNs = cpu * scale;
        } else if (row && type == "aggregate" && agg == "cv") {
            row->realCv = real; // a ratio, whatever the time unit
            row->cpuCv = cpu;
        }
        // Later repetitions and the mean/stddev aggregates add
        // nothing to the comparison.
    }
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_compare [--max-regress PCT] "
                 "[--metric cpu_time|real_time] BASELINE CURRENT\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    double max_regress = -1; // <0: report only, never fail
    bool use_cpu = true;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--max-regress") {
            if (++i >= argc)
                return usage();
            max_regress =
                kilo::util::parseFlagF64("--max-regress", argv[i]);
        } else if (arg == "--metric") {
            if (++i >= argc)
                return usage();
            std::string m = argv[i];
            if (m == "cpu_time")
                use_cpu = true;
            else if (m == "real_time")
                use_cpu = false;
            else
                return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return usage();

    std::vector<BenchRow> base, cur;
    if (!loadBenchmarks(paths[0], base) ||
        !loadBenchmarks(paths[1], cur))
        return 2;

    std::printf("%-34s %14s %14s %9s\n", "benchmark", "baseline",
                "current", "delta");
    auto metric = [use_cpu](const BenchRow &r) {
        return use_cpu ? r.cpuTimeNs : r.realTimeNs;
    };
    auto cv = [use_cpu](const BenchRow &r) {
        return use_cpu ? r.cpuCv : r.realCv;
    };

    int regressions = 0;
    double worst = 0;
    std::string worst_name;
    for (const auto &b : base) {
        const BenchRow *c = findRow(cur, b.name);
        if (!c) {
            std::printf("%-34s %11.0f ns %14s %9s\n", b.name.c_str(),
                        metric(b), "(gone)", "-");
            continue;
        }
        double delta =
            metric(b) > 0
                ? (metric(*c) - metric(b)) / metric(b) * 100.0
                : 0.0;
        double band = std::max(cv(b), cv(*c)) * 100.0;
        bool noise = std::fabs(delta) < band;
        std::printf("%-34s %11.0f ns %11.0f ns %+8.1f%%%s\n",
                    b.name.c_str(), metric(b), metric(*c), delta,
                    noise ? " noise" : "");
        if (max_regress >= 0 && delta > max_regress && !noise) {
            ++regressions;
            if (delta > worst) {
                worst = delta;
                worst_name = b.name;
            }
        }
    }
    for (const auto &c : cur) {
        if (!findRow(base, c.name)) {
            std::printf("%-34s %14s %11.0f ns %9s\n", c.name.c_str(),
                        "(new)", metric(c), "-");
        }
    }

    if (regressions) {
        std::fprintf(stderr,
                     "bench_compare: %d benchmark(s) regressed past "
                     "%.1f%% (worst: %s %+.1f%%)\n",
                     regressions, max_regress, worst_name.c_str(),
                     worst);
        return 1;
    }
    return 0;
}
