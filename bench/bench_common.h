/**
 * @file
 * Shared helpers for the reproduction benches: run-scale knobs from the
 * environment and the per-service chip-level sweep several figures
 * share (fanned out through the parallel experiment harness).
 */

#ifndef SIMR_BENCH_BENCH_COMMON_H
#define SIMR_BENCH_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/parallel.h"
#include "common/table.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"

namespace simr::bench
{

/** Results of one service under one core configuration. */
struct ChipRun
{
    TimingRun cpu;
    TimingRun other;  ///< SMT8 / RPU / GPU, depending on the bench

    double energyRatio() const
    {
        return other.reqPerJoule() / cpu.reqPerJoule();
    }

    double latencyRatio() const
    {
        return other.core.meanLatencySeconds() /
            cpu.core.meanLatencySeconds();
    }
};

/**
 * Run every service under the scalar CPU and under each config in
 * `others`, fanned out cell by cell over the harness workers in one
 * runCells call, so the CPU baseline runs once however many configs it
 * is compared against. Element c maps each service to its CPU run
 * paired with its others[c] run.
 */
inline std::vector<std::map<std::string, ChipRun>>
runAllServices(const std::vector<core::CoreConfig> &others,
               const TimingOptions &opt)
{
    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names)
        cells.push_back({name, core::makeCpuConfig(), opt});
    for (const auto &cfg : others)
        for (const auto &name : names)
            cells.push_back({name, cfg, opt});
    const std::vector<TimingRun> runs = runCells(cells);

    std::vector<std::map<std::string, ChipRun>> out(others.size());
    for (size_t c = 0; c < others.size(); ++c)
        for (size_t i = 0; i < names.size(); ++i)
            out[c].emplace(names[i],
                           ChipRun{runs[i],
                                   runs[(c + 1) * names.size() + i]});
    return out;
}

/** Geometric mean. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace simr::bench

#endif // SIMR_BENCH_BENCH_COMMON_H
