/**
 * @file
 * The traced run: per-layer host time, measured from outside.
 *
 * Every chip cell and every front-end probe is rebuilt here from the
 * layer entry points, in the order runTiming / measureEfficiency use
 * them -- genRequests, formBatches, makeBatchProvider /
 * makeScalarProvider, the lockstep engine or scalar stream, the timing
 * core, computeEnergy -- with a span around each call. The front end's
 * time is measured by BlockStream, which sits between the core and the
 * engine and pulls ops in blocks, so the clock is read once per block
 * rather than once per op. The composed cells are then checked
 * bit-identical against what the simulator's own runCells /
 * measureEfficiency return for the same inputs, and the difference in
 * host time between the two is the runner's unattributed time.
 *
 * One traced pass covers the layers of all three workloads, so every
 * per-layer metric is measured on the workload that exercises it.
 */

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/logging.h"
#include "common/parallel.h"
#include "simr/cachestudy.h"
#include "stats.h"
#include "sys/uqsim.h"
#include "trace/stream.h"
#include "workloads.h"

#include "analysis/cache.h"

namespace perfbench
{

using namespace simr;

namespace
{

/** A timed call into one layer; spans of one cell share `cell`. */
struct Span
{
    std::string name;
    std::string cell;
    std::string parent;   ///< enclosing span's name ("" at the top)
    double t0 = 0, t1 = 0;   ///< seconds since the traced pass began
};

/** In-memory span store, written out once when the pass ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - origin_).count();
    }

    void
    add(std::vector<Span> spans)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Span &s : spans)
            spans_.push_back(std::move(s));
    }

    /** Total duration of the spans named `name` (under `parent`). */
    double
    total(const std::string &name, const char *parent = nullptr) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double s = 0;
        for (const Span &sp : spans_)
            if (sp.name == name && (parent == nullptr || sp.parent == parent))
                s += sp.t1 - sp.t0;
        return s;
    }

    double
    max(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double m = 0;
        for (const Span &sp : spans_)
            if (sp.name == name)
                m = std::max(m, sp.t1 - sp.t0);
        return m;
    }

    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            simr_fatal("cannot write span file %s", path.c_str());
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"cell\": \"%s\", "
                         "\"parent\": \"%s\", \"start_s\": %.9f, "
                         "\"end_s\": %.9f}%s\n",
                         s.name.c_str(), s.cell.c_str(), s.parent.c_str(),
                         s.t0, s.t1, i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
    }

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Spans of one cell, collected on its worker and flushed once. */
class CellSpans
{
  public:
    CellSpans(SpanLog &log, std::string cell)
        : log_(log), cell_(std::move(cell))
    {}

    /** Time `fn` as a span named `name` under `parent`. */
    template <typename Fn>
    auto
    time(const char *name, const char *parent, Fn &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            close(name, parent, t0, Clock::now());
        } else {
            auto r = fn();
            close(name, parent, t0, Clock::now());
            return r;
        }
    }

    /** Record an already-measured span. */
    void
    close(const char *name, const char *parent, Clock::time_point t0,
          Clock::time_point t1)
    {
        spans_.push_back({name, cell_, parent, log_.at(t0), log_.at(t1)});
    }

    /** Record an aggregate span of `seconds` that ends at `t1`. */
    void
    aggregate(const char *name, const char *parent, double seconds,
              Clock::time_point t1)
    {
        const double end = log_.at(t1);
        spans_.push_back({name, cell_, parent, end - seconds, end});
    }

    ~CellSpans() { log_.add(std::move(spans_)); }

    CellSpans(const CellSpans &) = delete;
    CellSpans &operator=(const CellSpans &) = delete;

  private:
    SpanLog &log_;
    std::string cell_;
    std::vector<Span> spans_;
};

/**
 * Forwarding DynStream that pulls its inner stream in blocks of kBlock
 * ops and times each block. The streams the timing core drains are
 * independent of each other, so reading one ahead changes nothing the
 * core sees (the identity check confirms it).
 */
class BlockStream : public trace::DynStream
{
  public:
    static constexpr size_t kBlock = 64;

    explicit BlockStream(trace::DynStream &inner)
        : inner_(inner), buf_(kBlock)
    {}

    bool
    next(trace::DynOp &op) override
    {
        if (pos_ == len_ && !refill())
            return false;
        op.copyFrom(buf_[pos_++]);
        return true;
    }

    uint64_t
    requestsCompleted() const override
    {
        return inner_.requestsCompleted();
    }

    double seconds() const { return seconds_; }
    uint64_t ops() const { return ops_; }

  private:
    bool
    refill()
    {
        if (done_)
            return false;
        const Clock::time_point t0 = Clock::now();
        len_ = 0;
        while (len_ < kBlock && inner_.next(buf_[len_]))
            ++len_;
        seconds_ += secondsSince(t0);
        done_ = len_ < kBlock;
        ops_ += len_;
        pos_ = 0;
        return len_ > 0;
    }

    trace::DynStream &inner_;
    std::vector<trace::DynOp> buf_;
    size_t pos_ = 0, len_ = 0;
    bool done_ = false;
    double seconds_ = 0;
    uint64_t ops_ = 0;
};

/** Counters summed over every composed cell and probe. */
struct LayerCounts
{
    std::mutex mu;
    uint64_t frontendOps = 0;
    uint64_t coreOps = 0;
    uint64_t cycles = 0;
    uint64_t skipped = 0;
    uint64_t laneOps = 0;      ///< SimtStats::scalarOps
    uint64_t laneSlots = 0;    ///< batchOps x width
    uint64_t batchedReqs = 0;  ///< requests handed to formBatches
    uint64_t batchSlots = 0;   ///< batches x width
    uint64_t identical = 0;    ///< composed == simulator's own result

    void
    addBatches(size_t reqs, const std::vector<batch::Batch> &b, int width)
    {
        std::lock_guard<std::mutex> lock(mu);
        batchedReqs += reqs;
        batchSlots += b.size() * static_cast<uint64_t>(width);
    }

    void
    addSimt(const simt::SimtStats &s)
    {
        std::lock_guard<std::mutex> lock(mu);
        laneOps += s.scalarOps;
        laneSlots += s.batchOps * static_cast<uint64_t>(s.width);
    }
};

/** Frontend time and op count of a set of block streams. */
void
noteFrontend(CellSpans &spans, const char *parent,
             const std::vector<std::unique_ptr<BlockStream>> &blocks,
             Clock::time_point end, LayerCounts &counts)
{
    double s = 0;
    uint64_t ops = 0;
    for (const auto &b : blocks) {
        s += b->seconds();
        ops += b->ops();
    }
    spans.aggregate("frontend", parent, s, end);
    std::lock_guard<std::mutex> lock(counts.mu);
    counts.frontendOps += ops;
}

/**
 * One chip cell composed from the layer entry points, dealing requests
 * and batches across SMT contexts / GPU engines as runTiming does.
 */
TimingRun
composeCell(const Cell &cell, SpanLog &log, LayerCounts &counts,
            uint64_t *retired)
{
    CellSpans spans(log, cell.service + "/" + cell.cfg.name);
    const Clock::time_point cellStart = Clock::now();
    const TimingOptions &opt = cell.opt;
    const core::CoreConfig &cfg = cell.cfg;
    auto svc = svc::buildService(cell.service);
    const uint64_t seed = cellSeed(opt.seed, cell.service, cfg);

    auto reqs = spans.time("services.gen", "cell", [&] {
        return genRequests(*svc, opt.requests, seed);
    });
    std::vector<std::unique_ptr<trace::DynStream>> units;
    std::vector<simt::LockstepEngine *> engines;
    if (cfg.batchWidth > 1) {
        int bsize = cfg.batchWidth;
        if (opt.batchOverride > 0)
            bsize = opt.batchOverride;
        else if (opt.useTunedBatch)
            bsize = std::min(bsize, svc->traits().tunedBatch);
        auto batches = spans.time("batching.form", "cell", [&] {
            return batch::BatchingServer(opt.policy, bsize)
                .formBatches(reqs);
        });
        counts.addBatches(reqs.size(), batches, bsize);
        const auto n = static_cast<size_t>(cfg.smtThreads);
        std::vector<std::vector<batch::Batch>> perEngine(n);
        for (size_t i = 0; i < batches.size(); ++i)
            perEngine[i % n].push_back(std::move(batches[i]));
        for (size_t e = 0; e < n; ++e) {
            auto provider = spans.time("provider", "cell", [&] {
                return makeBatchProvider(*svc, std::move(perEngine[e]),
                                         opt.alloc);
            });
            auto engine = spans.time("engine.build", "cell", [&] {
                return std::make_unique<simt::LockstepEngine>(
                    svc->program(), opt.reconv, bsize, std::move(provider));
            });
            engines.push_back(engine.get());
            units.push_back(std::move(engine));
        }
    } else {
        const auto n = static_cast<size_t>(std::max(1, cfg.smtThreads));
        std::vector<std::vector<svc::Request>> perThread(n);
        for (size_t i = 0; i < reqs.size(); ++i)
            perThread[i % n].push_back(reqs[i]);
        for (size_t t = 0; t < n; ++t) {
            auto provider = spans.time("provider", "cell", [&] {
                return makeScalarProvider(*svc, perThread[t],
                                          static_cast<uint64_t>(t),
                                          opt.alloc);
            });
            units.push_back(spans.time("engine.build", "cell", [&] {
                return std::make_unique<trace::ScalarStream>(
                    svc->program(), std::move(provider));
            }));
        }
    }

    std::vector<std::unique_ptr<BlockStream>> blocks;
    std::vector<trace::DynStream *> streams;
    for (auto &u : units) {
        blocks.push_back(std::make_unique<BlockStream>(*u));
        streams.push_back(blocks.back().get());
    }
    TimingRun out;
    const Clock::time_point coreStart = Clock::now();
    core::TimingCore core(cfg);
    out.core = core.run(streams);
    const Clock::time_point coreEnd = Clock::now();
    spans.close("core", "cell", coreStart, coreEnd);
    noteFrontend(spans, "core", blocks, coreEnd, counts);
    for (simt::LockstepEngine *e : engines)
        out.simt += e->stats();
    if (!engines.empty())
        counts.addSimt(out.simt);
    out.energy = spans.time("energy", "cell", [&] {
        return energy::computeEnergy(out.core,
                                     energy::EnergyParams::forConfig(cfg),
                                     cfg.chipStaticWatts / cfg.chipCores);
    });
    spans.close("cell", "", cellStart, Clock::now());

    *retired = 0;
    for (const auto &u : units)
        *retired += u->requestsCompleted();
    std::lock_guard<std::mutex> lock(counts.mu);
    counts.coreOps += out.core.batchOps;
    counts.cycles += out.core.cycles;
    counts.skipped += out.core.skippedCycles;
    return out;
}

/** One SIMT-efficiency probe composed as measureEfficiency runs it. */
simt::SimtStats
composeProbe(const svc::Service &svc, const Probe &p, int n, uint64_t seed,
             SpanLog &log, LayerCounts &counts, uint64_t *retired)
{
    CellSpans spans(log, svc.traits().name + "/probe");
    const Clock::time_point start = Clock::now();
    auto reqs = spans.time("services.gen", "probe", [&] {
        return genRequests(svc, n, seed);
    });
    auto batches = spans.time("batching.form", "probe", [&] {
        return batch::BatchingServer(p.policy, p.width).formBatches(reqs);
    });
    counts.addBatches(reqs.size(), batches, p.width);
    auto provider = spans.time("provider", "probe", [&] {
        return makeBatchProvider(svc, std::move(batches));
    });
    auto engine = spans.time("engine.build", "probe", [&] {
        return std::make_unique<simt::LockstepEngine>(
            svc.program(), p.reconv, p.width, std::move(provider));
    });
    std::vector<std::unique_ptr<BlockStream>> blocks;
    blocks.push_back(std::make_unique<BlockStream>(*engine));
    trace::DynOp op;
    while (blocks[0]->next(op)) {
        // Drain: the engine accumulates its statistics.
    }
    noteFrontend(spans, "probe", blocks, Clock::now(), counts);
    spans.close("probe", "", start, Clock::now());
    *retired = engine->requestsCompleted();
    counts.addSimt(engine->stats());
    return engine->stats();
}

/** Host wall time and process CPU time of one call. */
struct Cost
{
    double wall = 0;
    double cpu = 0;
};

template <typename Fn>
Cost
measure(Fn &&fn)
{
    const double c0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    fn();
    return {secondsSince(t0), processCpuSeconds() - c0};
}

} // namespace

PassResult
runTraced(const PassSpec &spec, TimedPart &timed,
          const std::string &spanFile)
{
    setDefaultThreads(spec.threads);
    const int W = spec.threads;
    PassResult out;
    LayerCounts counts;
    SpanLog log(Clock::now());

    // Set-up, shared by chip_sweep and design_sweep.
    std::vector<std::unique_ptr<svc::Service>> services;
    {
        CellSpans spans(log, "setup");
        for (const auto &name : svc::serviceNames()) {
            services.push_back(svc::buildService(name));
            spans.time("analysis.prove", "setup", [&] {
                analysis::gateAndProve(services.back()->program());
            });
        }
    }
    timed.start();

    // Host time and CPU time of the simulator's own calls and of each
    // workload's traced part.
    Cost chipCost, runCellsCost, probeCost, studyCost, effCost, clusterCost;
    const auto grid = scenarioGrid(spec);
    const auto cellCfg = clusterCell(spec);
    std::vector<sys::SysResult> points(grid.size());
    sys::ClusterResult cluster;

    auto chipPart = [&] {
        // chip_sweep: composed cells, then the simulator's own runCells.
        const auto cells = chipCells(spec);
        std::vector<TimingRun> composed(cells.size());
        std::vector<uint64_t> retired(cells.size());
        chipCost = measure([&] {
            parallelFor(cells.size(), [&](size_t i) {
                composed[i] = composeCell(cells[i], log, counts, &retired[i]);
            }, W);
        });
        std::vector<TimingRun> runs;
        runCellsCost = measure([&] { runs = runCells(cells, W); });
        for (size_t i = 0; i < cells.size(); ++i) {
            const std::string name =
                cells[i].service + "/" + cells[i].cfg.name;
            const bool same = sameChip(composed[i], runs[i]);
            counts.identical += same ? 1 : 0;
            out.checks.expect(same && retired[i] == composed[i].core.requests,
                              name + ": composed cell differs from runTiming");
            checkChip(out.checks, name + " (composed)", composed[i],
                      static_cast<uint64_t>(cells[i].opt.requests));
        }
    };
    auto designPart = [&] {
        // design_sweep: composed probes (the Fig. 4/11 probes and the
        // tuner's efficiency probes) and the tuner's cache studies, then the
        // simulator's own measureEfficiency on the same inputs, tuner widths
        // first as tuneBatchSize runs them.
        std::vector<Probe> tunerProbes;
        for (size_t s = 0; s < services.size(); ++s)
            for (int w :
                 tunerConfig(spec, services[s]->traits().name).candidates)
                tunerProbes.push_back({s, batch::Policy::PerApiArgSize,
                                       simt::ReconvPolicy::MinSpPc, w});
        std::vector<Probe> probes = tunerProbes;
        for (const Probe &p : designProbes(services.size()))
            probes.push_back(p);
        auto inputs = [&](const Probe &p) {
            return tunerConfig(spec, services[p.service]->traits().name);
        };
        std::vector<simt::SimtStats> probeStats(probes.size());
        std::vector<uint64_t> probeRetired(probes.size());
        probeCost = measure([&] {
            parallelFor(probes.size(), [&](size_t i) {
                const tune::TunerConfig t = inputs(probes[i]);
                probeStats[i] = composeProbe(*services[probes[i].service],
                                             probes[i], t.profileRequests,
                                             t.seed, log, counts,
                                             &probeRetired[i]);
            }, W);
        });
        studyCost = measure([&] {
            parallelFor(tunerProbes.size(), [&](size_t i) {
                const Probe &p = tunerProbes[i];
                const tune::TunerConfig t = inputs(p);
                CacheStudyOptions copt;
                copt.requests = t.profileRequests;
                copt.seed = t.seed;
                copt.l1KB = t.l1KB;
                CellSpans spans(log, services[p.service]->traits().name);
                spans.time("simr.cachestudy", "", [&] {
                    studyRpuCache(*services[p.service], p.width, copt);
                });
            }, W);
        });
        std::vector<simt::SimtStats> refStats(probes.size());
        effCost = measure([&] {
            parallelFor(probes.size(), [&](size_t i) {
                const Probe &p = probes[i];
                const tune::TunerConfig t = inputs(p);
                CellSpans spans(log, services[p.service]->traits().name);
                refStats[i] = spans.time("simr.efficiency", "", [&] {
                    return measureEfficiency(*services[p.service], p.policy,
                                             p.reconv, p.width,
                                             t.profileRequests, t.seed)
                        .stats;
                });
            }, W);
        });
        for (size_t i = 0; i < probes.size(); ++i) {
            Digest a, b;
            addSimt(a, probeStats[i]);
            addSimt(b, refStats[i]);
            const auto n =
                static_cast<uint64_t>(inputs(probes[i]).profileRequests);
            const bool same = a.value() == b.value();
            counts.identical += same ? 1 : 0;
            out.checks.expect(same && probeRetired[i] == n,
                              services[probes[i].service]->traits().name +
                                  ": composed probe " + std::to_string(i) +
                                  " differs from measureEfficiency");
        }
    };
    auto clusterPart = [&] {
        // cluster: the system layer is timed call by call.
        clusterCost = measure([&] {
            parallelFor(grid.size(), [&](size_t i) {
                CellSpans spans(log, grid[i].system);
                points[i] = spans.time("sys.scenario", "", [&] {
                    return sys::runUserScenario(grid[i].cfg);
                });
            }, W);
            CellSpans spans(log, "cluster");
            cluster = spans.time("sys.cluster", "",
                                 [&] { return sys::runCluster(cellCfg); });
        });
    };

    // The pass's own workload runs first, in a process as fresh as an
    // untraced pass's, so the tracing overhead compares like with like.
    if (spec.workload == "design_sweep") {
        designPart();
        chipPart();
        clusterPart();
    } else if (spec.workload == "cluster") {
        clusterPart();
        chipPart();
        designPart();
    } else {
        chipPart();
        designPart();
        clusterPart();
    }
    timed.stop();
    finishCluster(spec, grid, points, cellCfg, cluster, out);

    // Per-layer metrics. The core's self time excludes the frontend
    // pulls made inside its spans. The simulator's own calls are timed
    // in process CPU time, which counts every worker's busy time and
    // none of its idle time; the composed spans are per-thread wall
    // time on at most `threads` <= cores workers.
    auto &L = out.layers;
    const sys::PdesStats &pdes = cluster.pdes;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    L["core.s"] = log.total("core") - log.total("frontend", "core");
    L["core.ns_per_op"] =
        ratio(L["core.s"] * 1e9, static_cast<double>(counts.coreOps));
    L["core.skip_frac"] = ratio(static_cast<double>(counts.skipped),
                                static_cast<double>(counts.cycles));
    L["frontend.s"] = log.total("frontend");
    L["frontend.ns_per_op"] = ratio(L["frontend.s"] * 1e9,
                                    static_cast<double>(counts.frontendOps));
    L["simt.efficiency"] = ratio(static_cast<double>(counts.laneOps),
                                 static_cast<double>(counts.laneSlots));
    L["runner.unattributed_s"] = (runCellsCost.cpu - log.total("cell")) +
        (effCost.cpu - log.total("probe"));
    L["harness.idle_frac"] =
        1.0 - ratio(runCellsCost.cpu, W * runCellsCost.wall);
    L["harness.max_cell_s"] = log.max("cell");
    L["services.gen_s"] = log.total("services.gen");
    L["batching.form_s"] = log.total("batching.form");
    L["batching.fill"] = ratio(static_cast<double>(counts.batchedReqs),
                               static_cast<double>(counts.batchSlots));
    L["analysis.prove_s"] = log.total("analysis.prove");
    L["energy.s"] = log.total("energy");
    L["simr.efficiency_s"] = log.total("simr.efficiency");
    L["simr.cachestudy_s"] = log.total("simr.cachestudy");
    L["sys.scenario_s"] = log.total("sys.scenario");
    L["sys.cluster_s"] = log.total("sys.cluster");
    L["sys.ns_per_event"] = ratio(L["sys.cluster_s"] * 1e9,
                                  static_cast<double>(pdes.events));
    L["sys.mailbox_sends"] = static_cast<double>(pdes.mailboxSends);
    L["sys.spill_frac"] = ratio(static_cast<double>(pdes.mailboxOverflows),
                                static_cast<double>(pdes.mailboxSends));
    L["sys.achieved_frac"] =
        ratio(cluster.sys.achievedQps, cluster.sys.offeredQps);
    L["trace.identical"] = static_cast<double>(counts.identical);
    // Host wall time of each workload's traced part, against which
    // run.py computes the tracing overhead.
    L["wall.chip_sweep"] = chipCost.wall;
    L["wall.design_sweep"] = probeCost.wall + studyCost.wall;
    L["wall.cluster"] = clusterCost.wall;
    log.write(spanFile);
    return out;
}

} // namespace perfbench
