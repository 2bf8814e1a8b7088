/**
 * @file
 * Metrics: end-to-end figures from the untraced rounds, per-layer
 * figures from the traced rounds and their spans, the per-layer
 * self-time table, and the one-line JSON result.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "jobs.hh"
#include "tracer.hh"

namespace perfbench
{

struct Round
{
    RoundSetup setup;
    std::vector<JobOutcome> jobs;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> v, double q);

/** A round's host-speed figures, raw and calibrated. */
struct RoundFigures
{
    double mops = 0;            ///< measured insts / advancing time
    double wallS = 0;           ///< timed regions
    double setupS = 0;          ///< set-up before the timed regions
    double normThroughput = 0;  ///< measured insts per 1000 calib ops
    double normWall = 0;        ///< timed regions in 1e6 calib ops
};

RoundFigures roundFigures(const Round &r);

/** norm_throughput, norm_wall, setup_s (medians over rounds) and
 *  peak_rss_mb. */
std::vector<Metric> endToEnd(const std::vector<Round> &untraced,
                             double peak_rss_mb);

/**
 * Every per-layer metric, in a fixed order. A layer the workload
 * never calls reports 0.
 */
std::vector<Metric> perLayer(const std::vector<Round> &untraced,
                             const std::vector<Round> &traced,
                             const Tracer &tracer);

/**
 * Per job: the self times of its spans must add up to the job span.
 * Returns the number of jobs that do not.
 */
size_t checkSpanCoverage(const std::vector<Round> &traced,
                         const Tracer &tracer);

/** Per-layer self time per job, one column per machine kind. */
void printSelfTimeTable(std::FILE *f, const std::string &workload,
                        const std::vector<Round> &traced,
                        const Tracer &tracer);

/** The result line: correct, attempted, failed, metrics. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench
