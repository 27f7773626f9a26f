/**
 * @file
 * Experiment runner: the high-level API that examples, tests and the
 * reproduction benches drive. Wires together request generation, the
 * batching server, the lockstep SIMT engines, the timing cores and the
 * energy model.
 */

#ifndef SIMR_SIMR_RUNNER_H
#define SIMR_SIMR_RUNNER_H

#include <vector>

#include "batching/policy.h"
#include "core/pipeline.h"
#include "energy/model.h"
#include "mem/allocator.h"
#include "services/service.h"
#include "simt/lockstep.h"

namespace simr
{

/** Generate `n` arrival-ordered requests for a service. */
std::vector<svc::Request> genRequests(const svc::Service &svc, int n,
                                      uint64_t seed);

/**
 * Batch provider over pre-formed batches: lane l of every batch runs in
 * hardware thread slot l (stacks contiguous per batch, arenas assigned
 * by the allocator policy).
 */
simt::LockstepEngine::BatchProvider
makeBatchProvider(const svc::Service &svc, std::vector<batch::Batch> batches,
                  mem::AllocPolicy alloc_policy = mem::AllocPolicy::SimrAware);

/**
 * Scalar request provider: requests run back-to-back in hardware thread
 * slot `slot`.
 */
trace::RequestProvider
makeScalarProvider(const svc::Service &svc, std::vector<svc::Request> reqs,
                   uint64_t slot,
                   mem::AllocPolicy alloc_policy = mem::AllocPolicy::GlibcLike);

/** SIMT-efficiency measurement (Figs. 4 and 11). */
struct EfficiencyResult
{
    simt::SimtStats stats;

    double efficiency() const { return stats.efficiency(); }
};

/**
 * Measure SIMT efficiency of a service under a batching policy and
 * reconvergence scheme, over `n` requests batched `width` wide. An
 * optional observer (obs::DivergenceProfiler, obs::SpanRecorder, ...)
 * sees every lockstep event of the run.
 */
EfficiencyResult measureEfficiency(const svc::Service &svc,
                                   batch::Policy policy,
                                   simt::ReconvPolicy reconv, int width,
                                   int n, uint64_t seed,
                                   simt::LockstepObserver *observer = nullptr);

/** One chip-level timing + energy run. */
struct TimingRun
{
    core::CoreResult core;
    energy::EnergyBreakdown energy;
    /** Lockstep SIMT stats summed across engines (batch configs only). */
    simt::SimtStats simt;

    double reqPerJoule() const
    {
        return energy::requestsPerJoule(core, energy);
    }
};

/** Options for runTiming. */
struct TimingOptions
{
    batch::Policy policy = batch::Policy::PerApiArgSize;
    simt::ReconvPolicy reconv = simt::ReconvPolicy::MinSpPc;
    mem::AllocPolicy alloc = mem::AllocPolicy::SimrAware;
    int requests = 512;
    uint64_t seed = 42;
    /** Override the batch size; 0 = the service's tuned batch size. */
    int batchOverride = 0;
    bool useTunedBatch = true;

    bool operator==(const TimingOptions &) const = default;
};

/**
 * Run a service through a core configuration:
 *  - batchWidth > 1: lockstep batch stream (RPU / GPU),
 *  - smtThreads > 1: requests split across SMT contexts,
 *  - otherwise: one scalar stream.
 */
TimingRun runTiming(const svc::Service &svc, const core::CoreConfig &cfg,
                    const TimingOptions &opt);

/**
 * One experiment cell of a sweep: a service under a core configuration
 * with run options. The unit of parallelism in the experiment harness.
 */
struct Cell
{
    std::string service;      ///< registry name (svc::buildService)
    core::CoreConfig cfg;
    TimingOptions opt;

    bool operator==(const Cell &) const = default;
};

/**
 * Seed for one cell, derived from the master seed and the cell identity
 * (service name + the config fields that change what executes). Because
 * the seed depends only on what the cell *is* -- never on when or where
 * it runs -- sweep results are bit-identical to the serial order at any
 * thread count.
 */
uint64_t cellSeed(uint64_t master, const std::string &service,
                  const core::CoreConfig &cfg);

/**
 * Run a sweep of cells, fanned out over `threads` workers
 * (0 = defaultThreads(), 1 = serial on the calling thread). Each cell
 * builds its own service instance and runs runTiming with its derived
 * cellSeed; results return in input order.
 *
 * Observability: each cell runs under its own private obs::Registry
 * (tracing disabled inside cells), and the per-cell registries are
 * merged into the caller's scoped registry in input order after the
 * fan-out -- so the merged exposition is bit-identical at any thread
 * count.
 */
std::vector<TimingRun> runCells(const std::vector<Cell> &cells,
                                int threads = 0);

} // namespace simr

#endif // SIMR_SIMR_RUNNER_H
