/**
 * @file
 * End-to-end tests of tools/bench_compare on two checked-in
 * google-benchmark fixtures (tests/data/bench_compare/):
 *
 *  - plain.json: one iteration row per benchmark, the layout of the
 *    BENCH_pr08..10 trajectory snapshots;
 *  - repeated.json: --benchmark_repetitions rows plus the mean,
 *    median, stddev and cv aggregates, the layout from BENCH_pr12 on.
 *    BM_Alpha's first repetition (300 ns) is far from its median
 *    (151 ns), so a table reading the first row instead of the median
 *    shows; BM_Beta is +5% on plain.json inside its 8% cv band.
 *
 * The tests run the real tool binary and check its table and exit
 * codes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace
{

struct ToolRun
{
    std::string out; ///< stdout and stderr, interleaved
    int status = -1; ///< exit code
};

ToolRun
runTool(const std::string &args)
{
    std::string cmd =
        std::string(KILO_BENCH_COMPARE) + " " + args + " 2>&1";
    ToolRun run;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return run;
    char buf[512];
    while (size_t n = fread(buf, 1, sizeof(buf), p))
        run.out.append(buf, n);
    int st = pclose(p);
    run.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return run;
}

std::string
fixture(const char *name)
{
    return std::string(KILO_SOURCE_DIR) + "/tests/data/bench_compare/" +
           name;
}

/** The table line for @p bench, or "" when absent. */
std::string
rowOf(const std::string &out, const std::string &bench)
{
    size_t at = out.find("\n" + bench + " ");
    if (at == std::string::npos)
        return "";
    size_t end = out.find('\n', at + 1);
    return out.substr(at + 1, end - at - 1);
}

} // anonymous namespace

TEST(BenchCompare, PlainAgainstRepeatedComparesMedians)
{
    ToolRun r = runTool(fixture("plain.json") + " " +
                        fixture("repeated.json"));
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(rowOf(r.out, "BM_Alpha"),
              "BM_Alpha                                   100 ns"
              "         151 ns    +51.0%");
    // 0.21 us median against 200 ns: +5%, inside the 8% cv band.
    EXPECT_EQ(rowOf(r.out, "BM_Beta"),
              "BM_Beta                                    200 ns"
              "         210 ns     +5.0% noise");
    EXPECT_EQ(rowOf(r.out, "BM_Gone"),
              "BM_Gone                                     50 ns"
              "         (gone)         -");
    EXPECT_EQ(rowOf(r.out, "BM_New"),
              "BM_New                                      (new)"
              "          80 ns         -");
    // One row per benchmark, never one per repetition.
    EXPECT_EQ(r.out.find("BM_Alpha", r.out.find("BM_Alpha") + 1),
              std::string::npos)
        << r.out;
}

TEST(BenchCompare, RegressionsInsideTheNoiseBandDoNotFail)
{
    // Both BM_Alpha (+51%) and BM_Beta (+5%) exceed 2%, but BM_Beta
    // is noise, so exactly one regression is reported.
    ToolRun r = runTool("--max-regress 2 " + fixture("plain.json") +
                        " " + fixture("repeated.json"));
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("1 benchmark(s) regressed past 2.0% "
                         "(worst: BM_Alpha +51.0%)"),
              std::string::npos)
        << r.out;

    ToolRun ok = runTool("--max-regress 60 " + fixture("plain.json") +
                         " " + fixture("repeated.json"));
    EXPECT_EQ(ok.status, 0) << ok.out;
}

TEST(BenchCompare, IdenticalFilesShowNoDelta)
{
    ToolRun plain = runTool("--max-regress 0 " + fixture("plain.json") +
                            " " + fixture("plain.json"));
    EXPECT_EQ(plain.status, 0) << plain.out;
    EXPECT_EQ(rowOf(plain.out, "BM_Beta"),
              "BM_Beta                                    200 ns"
              "         200 ns     +0.0%");

    ToolRun rep = runTool("--max-regress 0 " +
                          fixture("repeated.json") + " " +
                          fixture("repeated.json"));
    EXPECT_EQ(rep.status, 0) << rep.out;
    EXPECT_EQ(rowOf(rep.out, "BM_Alpha"),
              "BM_Alpha                                   151 ns"
              "         151 ns     +0.0% noise");
    // A zero cv is no band at all.
    EXPECT_EQ(rowOf(rep.out, "BM_New"),
              "BM_New                                      80 ns"
              "          80 ns     +0.0%");
}

TEST(BenchCompare, BadInputExitsTwo)
{
    EXPECT_EQ(runTool(fixture("plain.json")).status, 2);
    EXPECT_EQ(runTool("--metric wall " + fixture("plain.json") + " " +
                      fixture("plain.json"))
                  .status,
              2);
    EXPECT_EQ(runTool(fixture("plain.json") + " " +
                      fixture("missing.json"))
                  .status,
              2);
}
