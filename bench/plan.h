/**
 * @file
 * The work plan of the paper suite. Each figure declares the runs it
 * needs; the plan keeps one copy of every distinct run, where two runs
 * are the same run only when all of their inputs compare equal, runs
 * the distinct ones once in a single fan-out and hands every figure its
 * results. Nothing is kept between plans.
 */

#ifndef SIMR_BENCH_PLAN_H
#define SIMR_BENCH_PLAN_H

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "sys/uqsim.h"

namespace simr::bench
{

/** One SIMT-efficiency probe: the inputs of measureEfficiency. */
struct EffProbe
{
    std::string service;
    batch::Policy policy{};
    simt::ReconvPolicy reconv{};
    int width = 0;
    int requests = 0;
    uint64_t seed = 0;

    bool operator==(const EffProbe &) const = default;
};

/** One functional cache study: studyRpuCache, or studyCpuCache. */
struct CacheProbe
{
    std::string service;
    bool rpu = false;
    int batch = 0;  ///< RPU batch size; 0 for a CPU study
    CacheStudyOptions opt;

    bool operator==(const CacheProbe &) const = default;
};

/** @name Running one plan item
 *  A timing Cell runs with the seed it carries; whoever declares a
 *  runCells-style cell applies cellSeed first. */
/// @{
TimingRun runItem(const Cell &cell);
EfficiencyResult runItem(const EffProbe &probe);
CacheStudyResult runItem(const CacheProbe &probe);
sys::SysResult runItem(const sys::SysConfig &cfg);
/// @}

template <typename In>
using ResultOf = decltype(runItem(std::declval<const In &>()));

/** Where a declared item's result will be. */
template <typename In>
struct Handle
{
    size_t index = 0;
};

class Plan
{
  public:
    /** Declare an item; an equal item declared before shares its run. */
    template <typename In>
    Handle<In>
    add(const In &in)
    {
        auto &k = std::get<Kind<In>>(kinds_);
        ++k.declared;
        size_t i = static_cast<size_t>(
            std::find(k.items.begin(), k.items.end(), in) -
            k.items.begin());
        if (i == k.items.size())
            k.items.push_back(in);
        return {i};
    }

    /** Result of a declared item; valid once run() has returned. */
    template <typename In>
    const ResultOf<In> &
    operator[](Handle<In> h) const
    {
        return std::get<Kind<In>>(kinds_).results.at(h.index);
    }

    /**
     * Run every distinct item once, in one parallelFor over
     * defaultThreads() workers. Each item runs under its own private
     * obs::Registry, as a runCells cell does, so results do not depend
     * on the worker count.
     */
    void run();

    /**
     * The ledger of the last run() as JSON members: per kind the items
     * declared and run, then the fan-out's workers, wall and process
     * CPU seconds, summed item seconds and worker idle fraction.
     */
    std::string ledger() const;

  private:
    template <typename In>
    struct Kind
    {
        explicit Kind(const char *n) : name(n) {}

        const char *name;
        std::vector<In> items;             ///< distinct, first-declared order
        std::vector<ResultOf<In>> results; ///< results[i] of items[i]
        size_t declared = 0;
    };

    std::tuple<Kind<Cell>, Kind<EffProbe>, Kind<CacheProbe>,
               Kind<sys::SysConfig>>
        kinds_{"timing", "efficiency", "cache_study", "system"};
    int workers_ = 0;
    double wallS_ = 0, cpuS_ = 0, busyS_ = 0;
};

} // namespace simr::bench

#endif // SIMR_BENCH_PLAN_H
