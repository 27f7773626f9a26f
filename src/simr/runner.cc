#include "simr/runner.h"

#include <memory>
#include <string>

#include "analysis/cache.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/divergence.h"

namespace simr
{
namespace
{

/** Fold one run's core + SIMT stats into the scoped registry. */
void
recordRunMetrics(const TimingRun &run)
{
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("core.cycles")->inc(run.core.cycles);
    reg->counter("core.batch_ops")->inc(run.core.batchOps);
    reg->counter("core.scalar_insts")->inc(run.core.scalarInsts);
    reg->counter("core.requests")->inc(run.core.requests);
    // Simulator diagnostics: how much work the event-driven loop
    // avoided. Zero when CoreConfig::eventDriven is off.
    reg->counter("core.cycles_skipped")->inc(run.core.skippedCycles);
    reg->counter("core.skip_jumps")->inc(run.core.skipJumps);
    reg->gauge("core.ipc")->set(run.core.ipc());
    reg->hist("core.req_latency_cycles")->record(run.core.reqLatency);
    if (run.simt.batches > 0)
        obs::recordSimtStats(reg, run.simt);
}

} // namespace

std::vector<svc::Request>
genRequests(const svc::Service &svc, int n, uint64_t seed)
{
    Rng rng(seed ^ svc.dataSeed());
    std::vector<svc::Request> reqs;
    reqs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        reqs.push_back(svc.genRequest(i, rng));
    return reqs;
}

simt::LockstepEngine::BatchProvider
makeBatchProvider(const svc::Service &svc, std::vector<batch::Batch> batches,
                  mem::AllocPolicy alloc_policy)
{
    struct State
    {
        const svc::Service *svc;
        std::vector<batch::Batch> batches;
        size_t next = 0;
        mem::HeapAllocator alloc;
    };
    auto st = std::make_shared<State>(
        State{&svc, std::move(batches), 0,
              mem::HeapAllocator(alloc_policy)});

    return [st](std::vector<trace::ThreadInit> &inits) -> int {
        if (st->next >= st->batches.size())
            return 0;
        const batch::Batch &b = st->batches[st->next++];
        inits.clear();
        for (size_t lane = 0; lane < b.requests.size(); ++lane) {
            inits.push_back(svc::makeThreadInit(
                *st->svc, b.requests[lane], static_cast<int>(lane),
                lane, st->alloc));
        }
        return static_cast<int>(inits.size());
    };
}

trace::RequestProvider
makeScalarProvider(const svc::Service &svc, std::vector<svc::Request> reqs,
                   uint64_t slot, mem::AllocPolicy alloc_policy)
{
    struct State
    {
        const svc::Service *svc;
        std::vector<svc::Request> reqs;
        size_t next = 0;
        uint64_t slot;
        mem::HeapAllocator alloc;
    };
    auto st = std::make_shared<State>(
        State{&svc, std::move(reqs), 0, slot,
              mem::HeapAllocator(alloc_policy)});

    return [st](trace::ThreadInit &init) -> bool {
        if (st->next >= st->reqs.size())
            return false;
        const svc::Request &r = st->reqs[st->next++];
        init = svc::makeThreadInit(*st->svc, r,
                                   static_cast<int>(st->slot), st->slot,
                                   st->alloc);
        return true;
    };
}

EfficiencyResult
measureEfficiency(const svc::Service &svc, batch::Policy policy,
                  simt::ReconvPolicy reconv, int width, int n,
                  uint64_t seed, simt::LockstepObserver *observer)
{
    auto ca = analysis::gateAndProve(svc.program());
    auto reqs = genRequests(svc, n, seed);
    batch::BatchingServer server(policy, width);
    simt::LockstepEngine engine(
        svc.program(), reconv, width,
        makeBatchProvider(svc, server.formBatches(reqs)));
    engine.setStaticProof(ca.proof);
    engine.setObserver(observer);
    trace::DynOp op;
    while (engine.next(op)) {
        // Drain: stats accumulate inside the engine.
    }
    obs::recordSimtStats(obs::Scope::registry(), engine.stats());
    return EfficiencyResult{engine.stats()};
}

TimingRun
runTiming(const svc::Service &svc, const core::CoreConfig &cfg,
          const TimingOptions &opt)
{
    auto ca = analysis::gateAndProve(svc.program());

    TimingRun run;
    core::TimingCore core(cfg);

    // The front end: one DynOp stream per hardware context the core
    // drains.
    std::vector<std::unique_ptr<trace::DynStream>> units;
    std::vector<simt::LockstepEngine *> engines;
    auto reqs = genRequests(svc, opt.requests, opt.seed);
    if (cfg.batchWidth > 1) {
        // RPU / GPU: batch the requests and execute in lockstep. A
        // core with several hardware batch contexts (the GPU's warp
        // multithreading) splits the batches across engines.
        int bsize = cfg.batchWidth;
        if (opt.batchOverride > 0)
            bsize = opt.batchOverride;
        else if (opt.useTunedBatch)
            bsize = std::min(bsize, svc.traits().tunedBatch);
        const int n = cfg.smtThreads;
        batch::BatchingServer server(opt.policy, bsize);
        auto batches = server.formBatches(reqs);
        std::vector<std::vector<batch::Batch>> per_engine(
            static_cast<size_t>(n));
        for (size_t i = 0; i < batches.size(); ++i)
            per_engine[i % per_engine.size()].push_back(
                std::move(batches[i]));
        for (int e = 0; e < n; ++e) {
            auto engine = std::make_unique<simt::LockstepEngine>(
                svc.program(), opt.reconv, bsize,
                makeBatchProvider(
                    svc, std::move(per_engine[static_cast<size_t>(e)]),
                    opt.alloc));
            engine->setStaticProof(ca.proof);
            engines.push_back(engine.get());
            units.push_back(std::move(engine));
        }
    } else {
        // Scalar / SMT: requests dealt round-robin across hardware
        // thread contexts (one context when smtThreads == 1).
        const int n = std::max(1, cfg.smtThreads);
        std::vector<std::vector<svc::Request>> per_thread(
            static_cast<size_t>(n));
        for (size_t i = 0; i < reqs.size(); ++i)
            per_thread[i % per_thread.size()].push_back(reqs[i]);
        for (int ti = 0; ti < n; ++ti)
            units.push_back(std::make_unique<trace::ScalarStream>(
                svc.program(),
                makeScalarProvider(svc,
                                   per_thread[static_cast<size_t>(ti)],
                                   static_cast<uint64_t>(ti), opt.alloc)));
    }
    std::vector<trace::DynStream *> streams;
    streams.reserve(units.size());
    for (const auto &u : units)
        streams.push_back(u.get());

    run.core = core.run(streams);
    for (const simt::LockstepEngine *e : engines)
        run.simt += e->stats();

    run.energy = energy::computeEnergy(
        run.core, energy::EnergyParams::forConfig(cfg),
        cfg.chipStaticWatts / cfg.chipCores);
    recordRunMetrics(run);
    return run;
}

uint64_t
cellSeed(uint64_t master, const std::string &service,
         const core::CoreConfig &cfg)
{
    // The seed is a pure function of the cell's identity, never of
    // when or where the cell runs -- that is what makes sweep results
    // bit-identical to the serial order at any thread count. Only
    // fields that parameterize the *request stream* may contribute:
    // today that is the service (and any future workload knobs a
    // config might grow -- which is why cfg is part of the contract).
    // Core-flavour fields (name, widths, latencies) deliberately do
    // not, so every config of a service executes the identical request
    // sample and cross-config ratios stay apples-to-apples.
    (void)cfg;
    uint64_t h = mix64(master ^ 0x51e5a11edULL);
    h = mix64(h ^ std::hash<std::string>{}(service));
    return h;
}

std::vector<TimingRun>
runCells(const std::vector<Cell> &cells, int threads)
{
    // Capture the caller's registry before fanning out: the worker
    // threads must not inherit whatever ambient scope they carry.
    obs::Registry *parent = obs::Scope::registry();

    // Each cell writes into its own private registry (a cell runs
    // wholly on one worker, so its sharded histograms see exactly one
    // thread and snapshot exactly). Tracing is disabled inside cells:
    // interleaved spans from concurrent cells would not be
    // deterministic.
    std::vector<std::unique_ptr<obs::Registry>> cellRegs;
    cellRegs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        cellRegs.push_back(std::make_unique<obs::Registry>());

    std::vector<TimingRun> out(cells.size());
    parallelFor(cells.size(), [&](size_t i) {
        obs::Scope scope(cellRegs[i].get(), nullptr);
        const Cell &cell = cells[i];
        auto svc = svc::buildService(cell.service);
        simr_assert(svc != nullptr, "unknown service in cell sweep");
        TimingOptions opt = cell.opt;
        opt.seed = cellSeed(cell.opt.seed, cell.service, cell.cfg);
        out[i] = runTiming(*svc, cell.cfg, opt);
    }, threads);

    // Merge in input order: the parent exposition is bit-identical at
    // any thread count.
    for (const auto &reg : cellRegs)
        parent->merge(*reg);
    return out;
}

} // namespace simr
