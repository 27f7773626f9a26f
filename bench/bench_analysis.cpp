/**
 * @file
 * Static-analyzer benchmarks plus the dataflow soundness gate.
 *
 * `--verify` runs the tier-1 `dataflow_soundness_gate`: across all 14
 * services it checks the static branch-uniformity verdicts against
 * dynamic execution. Lockstep runs under both reconvergence policies
 * and both a homogeneous and a deliberately mixing batch policy must
 * observe zero divergence at UniformAlways branches and zero divergence
 * at UniformPerBatch branches within (api, argLen)-uniform batches (the
 * engine's hintViolations tripwire, plus the profiler-side attribution
 * check).
 *
 * Without --verify, google-benchmark microbenchmarks keep the analyzer
 * (which gates every simulation) and the new dataflow fixpoint honest.
 */

#include <cstring>

#include <benchmark/benchmark.h>

#include "analysis/analyzer.h"
#include "analysis/cache.h"
#include "analysis/cfg.h"
#include "analysis/crosscheck.h"
#include "analysis/dataflow.h"
#include "analysis/dom.h"
#include "obs/divergence.h"
#include "simr/runner.h"

using namespace simr;

namespace
{

/** Full analyze() over one service program per iteration. */
void
BM_Analyze(benchmark::State &state, const char *name)
{
    auto svc = svc::buildService(name);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto report = analysis::analyze(svc->program());
        benchmark::DoNotOptimize(report);
        insts += report.numInsts;
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK_CAPTURE(BM_Analyze, memc, "memc");
BENCHMARK_CAPTURE(BM_Analyze, post, "post");
BENCHMARK_CAPTURE(BM_Analyze, usertag, "usertag");

/** CFG + both dominator trees alone (the algorithmic core). */
void
BM_CfgAndDominators(benchmark::State &state)
{
    auto svc = svc::buildService("post");
    for (auto _ : state) {
        analysis::Cfg cfg(svc->program());
        for (int f = 0; f < cfg.numFuncs(); ++f) {
            auto dom = analysis::DomTree::dominators(cfg, cfg.func(f));
            auto pdom = analysis::DomTree::postDominators(cfg, cfg.func(f));
            benchmark::DoNotOptimize(dom);
            benchmark::DoNotOptimize(pdom);
        }
    }
}
BENCHMARK(BM_CfgAndDominators);

/** The dataflow fixpoint alone (both uniformity modes + extraction). */
void
BM_Dataflow(benchmark::State &state, const char *name)
{
    auto svc = svc::buildService(name);
    analysis::Cfg cfg(svc->program());
    for (auto _ : state) {
        analysis::DataflowInfo df;
        analysis::runDataflow(svc->program(), cfg, &df);
        benchmark::DoNotOptimize(df);
    }
}
BENCHMARK_CAPTURE(BM_Dataflow, memc, "memc");
BENCHMARK_CAPTURE(BM_Dataflow, post, "post");

/** The gate: what every runner entry point pays. */
void
BM_GateAndProve(benchmark::State &state)
{
    auto svc = svc::buildService("post");
    for (auto _ : state) {
        auto ca = analysis::gateAndProve(svc->program());
        benchmark::DoNotOptimize(ca);
    }
}
BENCHMARK(BM_GateAndProve);

/** Lockstep replay with the cross-check decorator attached. */
void
BM_CheckedReplay(benchmark::State &state)
{
    auto svc = svc::buildService("memc");
    auto report = analysis::analyze(svc->program());
    uint64_t ops = 0;
    for (auto _ : state) {
        auto reqs = genRequests(*svc, 128, 1);
        batch::BatchingServer server(batch::Policy::PerApiArgSize, 32);
        simt::LockstepEngine engine(
            svc->program(), simt::ReconvPolicy::StackIpdom, 32,
            makeBatchProvider(*svc, server.formBatches(reqs)));
        analysis::CheckedStream checked(engine, report);
        trace::DynOp op;
        while (checked.next(op))
            ++ops;
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_CheckedReplay);

// ---------------------------------------------------------------------------
// dataflow_soundness_gate (--verify)

struct GateResult
{
    int failures = 0;
    uint64_t batches = 0;
    uint64_t divergeEvents = 0;
};

/**
 * One gate cell: run one (reconv, batching) combination
 * with the proof and a hint-joined profiler attached; any divergence at
 * an always-uniform branch, or at a per-batch-uniform branch inside an
 * (api, argLen)-uniform batch, is a soundness failure.
 */
void
verifyUniformity(const svc::Service &svc,
                 const analysis::ProgramAnalysis &ca,
                 simt::ReconvPolicy reconv, batch::Policy policy,
                 int requests, GateResult *out)
{
    auto reqs = genRequests(svc, requests, 11);
    batch::BatchingServer server(policy, trace::kMaxBatch);
    simt::LockstepEngine engine(
        svc.program(), reconv, trace::kMaxBatch,
        makeBatchProvider(svc, server.formBatches(reqs)));
    engine.setStaticProof(ca.proof);
    obs::DivergenceProfiler prof(svc.program());
    prof.setStaticHints(ca.report.dataflow);
    engine.setObserver(&prof);
    trace::DynOp op;
    while (engine.next(op)) {
        // Drain; the engine checks hints at its divergence sites.
    }
    out->batches += engine.stats().batches;
    out->divergeEvents += engine.stats().divergeEvents;
    const char *rc = reconv == simt::ReconvPolicy::StackIpdom
        ? "stack" : "minsp";
    if (engine.stats().hintViolations != 0) {
        ++out->failures;
        std::printf("  %s: FAIL %s/%s: %llu divergence(s) at "
                    "proven-uniform branches\n",
                    svc.traits().name.c_str(), rc,
                    batch::policyName(policy),
                    static_cast<unsigned long long>(
                        engine.stats().hintViolations));
    }
    if (prof.alwaysUniformViolations() != 0) {
        ++out->failures;
        std::printf("  %s: FAIL %s/%s: profiler attributed %llu "
                    "divergence(s) to UniformAlways cells\n",
                    svc.traits().name.c_str(), rc,
                    batch::policyName(policy),
                    static_cast<unsigned long long>(
                        prof.alwaysUniformViolations()));
    }
}

int
runGate()
{
    GateResult res;
    const int kBatchRequests = 256;
    const simt::ReconvPolicy reconvs[] = {
        simt::ReconvPolicy::StackIpdom, simt::ReconvPolicy::MinSpPc};
    // Naive deliberately mixes APIs and argument lengths in one batch:
    // the hardest test of an "under any batch mix" uniformity claim.
    const batch::Policy policies[] = {
        batch::Policy::PerApiArgSize, batch::Policy::Naive};
    int services = 0;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        auto ca = analysis::analyzeAndProve(svc->program());
        if (!ca.report.ok() || ca.proof == nullptr) {
            ++res.failures;
            std::printf("  %s: FAIL analyzer reported errors\n",
                        name.c_str());
            continue;
        }
        for (auto reconv : reconvs)
            for (auto policy : policies)
                verifyUniformity(*svc, ca, reconv, policy,
                                 kBatchRequests, &res);
        ++services;
    }
    std::printf("dataflow_soundness_gate: %s (%d services, %llu "
                "batches, %llu divergence events checked)\n",
                res.failures == 0 ? "PASS" : "FAIL", services,
                static_cast<unsigned long long>(res.batches),
                static_cast<unsigned long long>(res.divergeEvents));
    return res.failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--verify") == 0)
            return runGate();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
