/**
 * @file
 * Shared helpers for the reproduction benches: run-scale knobs from the
 * environment, the per-service chip-level sweep several figures share
 * (fanned out through the parallel experiment harness), and the
 * bit-identity comparisons the determinism gates are built on.
 */

#ifndef SIMR_BENCH_BENCH_COMMON_H
#define SIMR_BENCH_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
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

/** Percentiles pinned by the bit-identity gates (the figures' set). */
constexpr double kGatePercentiles[] = {0.5, 0.9, 0.95, 0.99};

/**
 * Bit-identity over every *reported* statistic of a core run:
 * cycles, retirement counts, the full latency histogram (moments and
 * pinned percentiles), every counter, and all cache/TLB/BP/MCU stats.
 * CoreResult::skippedCycles / skipJumps are simulator-loop diagnostics,
 * not model output, and are deliberately excluded -- the event-driven
 * gate compares runs whose loops differ, which must not change what
 * the model reports.
 */
inline bool
sameCoreResult(const core::CoreResult &a, const core::CoreResult &b)
{
    if (a.cycles != b.cycles || a.batchOps != b.batchOps ||
        a.scalarInsts != b.scalarInsts || a.requests != b.requests)
        return false;
    if (a.reqLatency.count() != b.reqLatency.count() ||
        a.reqLatency.mean() != b.reqLatency.mean() ||
        a.reqLatency.min() != b.reqLatency.min() ||
        a.reqLatency.max() != b.reqLatency.max())
        return false;
    for (double p : kGatePercentiles)
        if (a.reqLatency.percentile(p) != b.reqLatency.percentile(p))
            return false;
    if (a.counters.all() != b.counters.all())
        return false;
    if (a.l1Stats.accesses != b.l1Stats.accesses ||
        a.l1Stats.misses != b.l1Stats.misses ||
        a.l1Stats.storeAccesses != b.l1Stats.storeAccesses ||
        a.l1Stats.writebacks != b.l1Stats.writebacks)
        return false;
    if (a.mcuStats.batchMemInsts != b.mcuStats.batchMemInsts ||
        a.mcuStats.laneAccesses != b.mcuStats.laneAccesses ||
        a.mcuStats.generatedAccesses != b.mcuStats.generatedAccesses ||
        a.mcuStats.sameWord != b.mcuStats.sameWord ||
        a.mcuStats.stackCoalesced != b.mcuStats.stackCoalesced ||
        a.mcuStats.consecutive != b.mcuStats.consecutive ||
        a.mcuStats.divergent != b.mcuStats.divergent)
        return false;
    if (a.hierStats.l1BankConflictCycles != b.hierStats.l1BankConflictCycles ||
        a.hierStats.mshrMerges != b.hierStats.mshrMerges ||
        a.hierStats.atomicsAtL3 != b.hierStats.atomicsAtL3 ||
        a.hierStats.totalAccesses != b.hierStats.totalAccesses ||
        a.hierStats.totalLatency != b.hierStats.totalLatency)
        return false;
    if (a.tlbStats.lookups != b.tlbStats.lookups ||
        a.tlbStats.misses != b.tlbStats.misses)
        return false;
    if (a.bpStats.lookups != b.bpStats.lookups ||
        a.bpStats.mispredicts != b.bpStats.mispredicts ||
        a.bpStats.majorityVotes != b.bpStats.majorityVotes ||
        a.bpStats.minorityLaneFlushes != b.bpStats.minorityLaneFlushes)
        return false;
    return true;
}

/**
 * Process-wide cache of scalar-CPU baseline runs, shared across benches
 * in one binary: a bench comparing the RPU and then SMT-8 against the
 * CPU pays for the 14 CPU cells once, not twice. Mutex-guarded so
 * benches stay correct when fanned out via runCells.
 */
class BaselineCache
{
  public:
    static BaselineCache &
    instance()
    {
        static BaselineCache cache;
        return cache;
    }

    /** Cache key: everything in TimingOptions that changes a CPU run. */
    static std::string
    key(const std::string &service, const TimingOptions &opt)
    {
        return service + "|" +
            std::to_string(static_cast<int>(opt.policy)) + "|" +
            std::to_string(static_cast<int>(opt.reconv)) + "|" +
            std::to_string(static_cast<int>(opt.alloc)) + "|" +
            std::to_string(opt.requests) + "|" +
            std::to_string(opt.seed) + "|" +
            std::to_string(opt.batchOverride) + "|" +
            std::to_string(opt.useTunedBatch ? 1 : 0);
    }

    bool
    contains(const std::string &k) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.count(k) != 0;
    }

    void
    insert(const std::string &k, const TimingRun &run)
    {
        std::lock_guard<std::mutex> lock(mu_);
        runs_.emplace(k, run);
    }

    TimingRun
    at(const std::string &k) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.at(k);
    }

  private:
    BaselineCache() = default;

    mutable std::mutex mu_;
    std::map<std::string, TimingRun> runs_;
};

/**
 * Run every service under CPU + one comparison config, fanned out cell
 * by cell over the harness workers.
 *
 * The scalar-CPU baseline depends only on (service, opt), so it is
 * computed once per binary and shared across calls via BaselineCache.
 */
inline std::map<std::string, ChipRun>
runAllServices(const core::CoreConfig &other_cfg, const TimingOptions &opt)
{
    const auto &names = svc::serviceNames();
    core::CoreConfig cpu_cfg = core::makeCpuConfig();
    BaselineCache &baselines = BaselineCache::instance();

    // Comparison cells always run; CPU cells only where the cache has
    // no baseline yet for this (service, opt).
    std::vector<Cell> cells;
    std::vector<std::string> cpu_pending;
    for (const auto &name : names)
        cells.push_back({name, other_cfg, opt});
    for (const auto &name : names)
        if (!baselines.contains(BaselineCache::key(name, opt)))
            cpu_pending.push_back(name);
    for (const auto &name : cpu_pending)
        cells.push_back({name, cpu_cfg, opt});

    auto runs = runCells(cells);

    for (size_t i = 0; i < cpu_pending.size(); ++i)
        baselines.insert(BaselineCache::key(cpu_pending[i], opt),
                         runs[names.size() + i]);

    std::map<std::string, ChipRun> out;
    for (size_t i = 0; i < names.size(); ++i) {
        ChipRun run;
        run.cpu = baselines.at(BaselineCache::key(names[i], opt));
        run.other = runs[i];
        out.emplace(names[i], std::move(run));
    }
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
