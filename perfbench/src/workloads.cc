#include "workloads.h"

#include <cmath>

#include "analysis/cache.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "stats.h"
#include "sys/uqsim.h"

namespace perfbench
{

using namespace simr;

std::vector<Cell>
chipCells(const PassSpec &spec)
{
    TimingOptions opt;
    opt.seed = spec.seed;
    if (spec.scale == Scale::Small)
        opt.requests = 32;
    const core::CoreConfig cfgs[] = {
        core::makeCpuConfig(), core::makeSmt8Config(),
        core::makeRpuConfig(), core::makeGpuConfig()};
    std::vector<Cell> cells;
    for (const auto &cfg : cfgs)
        for (const auto &name : svc::serviceNames())
            cells.push_back({name, cfg, opt});
    return cells;
}

std::vector<Probe>
designProbes(size_t services)
{
    const batch::Policy policies[] = {batch::Policy::Naive,
                                      batch::Policy::PerApi,
                                      batch::Policy::PerApiArgSize};
    const simt::ReconvPolicy reconvs[] = {simt::ReconvPolicy::StackIpdom,
                                          simt::ReconvPolicy::MinSpPc};
    std::vector<Probe> probes;
    for (size_t s = 0; s < services; ++s)
        for (batch::Policy p : policies)
            for (simt::ReconvPolicy r : reconvs)
                probes.push_back({s, p, r, 32});
    return probes;
}

tune::TunerConfig
tunerConfig(const PassSpec &spec, const std::string &service)
{
    tune::TunerConfig cfg;
    cfg.seed = cellSeed(spec.seed, service, core::makeRpuConfig());
    if (spec.scale == Scale::Small)
        cfg.profileRequests = 64;
    return cfg;
}

std::vector<ScenarioPoint>
scenarioGrid(const PassSpec &spec)
{
    // Fig. 22's load grids (kQPS): the CPU system saturates near
    // 20 kQPS, the RPU systems near 100.
    const std::vector<double> cpu = {2, 4, 6, 8, 10, 12, 15, 18, 20, 25};
    const std::vector<double> rpu = {5,  10, 20, 30, 40, 50,
                                     60, 70, 80, 90, 100};
    std::vector<ScenarioPoint> grid;
    auto add = [&](const char *system, bool is_rpu, bool split,
                   const std::vector<double> &loads) {
        for (double kqps : loads) {
            sys::SysConfig cfg;
            cfg.qps = kqps * 1000;
            cfg.rpu = is_rpu;
            cfg.batchSplit = split;
            cfg.seed = spec.seed;
            if (spec.scale == Scale::Small)
                cfg.requests = 2000;
            cfg.validate();
            grid.push_back({system, kqps, cfg});
        }
    };
    add("cpu", false, true, cpu);
    add("rpu_split", true, true, rpu);
    add("rpu_nosplit", true, false, rpu);
    return grid;
}

sys::ClusterConfig
clusterCell(const PassSpec &spec)
{
    // 1024 servers in Fig. 3's 4:4:2:2:1 tier ratio, 1M open-loop
    // users, 2M requests at 4M offered QPS, RPU with batch splitting.
    const int servers = spec.scale == Scale::Small ? 13 : 1024;
    const double f = servers / 13.0;
    auto scaled = [f](int per13) {
        return std::max(1, static_cast<int>(std::lround(per13 * f)));
    };
    sys::ClusterConfig cc;
    cc.webServers = scaled(4);
    cc.userServers = scaled(4);
    cc.mcrouterServers = scaled(2);
    cc.memcServers = scaled(2);
    cc.storageServers = scaled(1);
    cc.base.rpu = true;
    cc.base.batchSplit = true;
    cc.users = spec.scale == Scale::Small ? 2000 : 1000000;
    cc.requests = spec.scale == Scale::Small ? 20000 : 2000000;
    cc.qps = spec.scale == Scale::Small ? 100000 : 4e6;
    cc.seed = spec.seed;
    cc.shards = spec.threads;
    cc.threads = spec.threads;
    cc.validate();
    return cc;
}

std::vector<std::unique_ptr<svc::Service>>
buildServices()
{
    std::vector<std::unique_ptr<svc::Service>> out;
    for (const auto &name : svc::serviceNames()) {
        out.push_back(svc::buildService(name));
        analysis::gateAndProve(out.back()->program());
    }
    return out;
}

namespace
{

double
geomean(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += std::log(x);
    return xs.empty() ? 0.0 : std::exp(s / static_cast<double>(xs.size()));
}

} // namespace

void
finishChip(const PassSpec &spec, const std::vector<Cell> &cells,
           const std::vector<TimingRun> &runs, PassResult &out)
{
    std::vector<double> energy, latency;
    for (size_t i = 0; i < runs.size(); ++i) {
        TimingRun o = runs[i];
        if (spec.injectFailure && i == 0)
            ++o.core.requests;
        checkChip(out.checks, cells[i].service + "/" + cells[i].cfg.name, o,
                  static_cast<uint64_t>(cells[i].opt.requests));
        out.digest.u64(chipDigest(o));
        out.simRequests += static_cast<double>(o.core.requests);
        out.simInsts += static_cast<double>(o.core.scalarInsts);
        // RPU vs CPU of the same service (cells are config-major).
        const size_t n = svc::serviceNames().size();
        if (i >= 2 * n && i < 3 * n) {
            const TimingRun &cpu = runs[i - 2 * n];
            energy.push_back(runs[i].reqPerJoule() / cpu.reqPerJoule());
            latency.push_back(runs[i].core.meanLatencySeconds() /
                              cpu.core.meanLatencySeconds());
        }
    }
    out.headline["rpu_cpu_req_per_joule"] = geomean(energy);
    out.headline["rpu_cpu_latency"] = geomean(latency);
}

void
finishDesign(const PassSpec &spec,
             const std::vector<std::unique_ptr<svc::Service>> &services,
             const std::vector<tune::TuneResult> &tuned,
             const std::vector<Probe> &probes,
             const std::vector<simt::SimtStats> &probeStats,
             PassResult &out)
{
    for (size_t s = 0; s < services.size(); ++s) {
        const std::string &name = services[s]->traits().name;
        const tune::TunerConfig tcfg = tunerConfig(spec, name);
        const tune::TuneResult &t = tuned[s];
        bool ok = t.points.size() == tcfg.candidates.size();
        bool chosen = false;
        for (const tune::TunePoint &p : t.points) {
            ok = ok && std::isfinite(p.mpki) && p.mpki >= 0 &&
                p.efficiency > 0 && p.efficiency <= 1;
            chosen = chosen || p.batchSize == t.chosenBatch;
            out.digest.u64(static_cast<uint64_t>(p.batchSize));
            out.digest.f64(p.mpki);
            out.digest.f64(p.efficiency);
            out.digest.u64(p.acceptable ? 1 : 0);
        }
        out.digest.u64(static_cast<uint64_t>(t.chosenBatch));
        out.checks.expect(ok && chosen, name + ": tuner result out of range");
        // Each candidate runs profileRequests through a cache study and
        // an efficiency probe.
        out.simRequests += 2.0 * static_cast<double>(tcfg.profileRequests *
                                                     tcfg.candidates.size());
    }
    for (size_t i = 0; i < probes.size(); ++i) {
        simt::SimtStats st = probeStats[i];
        if (spec.injectFailure && i == 0)
            st.batches = 0;
        const svc::Service &svc = *services[probes[i].service];
        const int n = tunerConfig(spec, svc.traits().name).profileRequests;
        // Every request must have been launched in some batch.
        const bool ok = st.batches * static_cast<uint64_t>(st.width) >=
                static_cast<uint64_t>(n) &&
            st.scalarOps >= static_cast<uint64_t>(n) &&
            st.efficiency() > 0 && st.efficiency() <= 1;
        out.checks.expect(ok, svc.traits().name + ": probe " +
                                  std::to_string(i) + " SIMT stats");
        addSimt(out.digest, st);
        out.simRequests += n;
        out.simInsts += static_cast<double>(st.scalarOps);
    }
}

void
finishCluster(const PassSpec &spec, const std::vector<ScenarioPoint> &grid,
              const std::vector<sys::SysResult> &points,
              const sys::ClusterConfig &cellCfg,
              const sys::ClusterResult &cell, PassResult &out)
{
    std::map<std::string, double> maxOk;
    for (size_t i = 0; i < grid.size(); ++i) {
        sys::SysResult r = points[i];
        if (spec.injectFailure && i == 0)
            r.e2eUs.clear();
        out.checks.expect(
            r.e2eUs.count() == static_cast<uint64_t>(grid[i].cfg.requests) &&
                std::isfinite(r.achievedQps) && r.achievedQps > 0,
            grid[i].system + " @ " + std::to_string(grid[i].kqps) +
                " kQPS: " + std::to_string(r.e2eUs.count()) +
                " requests completed");
        addSys(out.digest, r);
        out.simRequests += static_cast<double>(r.e2eUs.count());
        if (r.p99Us() < kQosP99Us)
            maxOk[grid[i].system] = std::max(maxOk[grid[i].system],
                                             grid[i].kqps);
    }
    out.checks.expect(cell.sys.e2eUs.count() == cellCfg.requests,
                      "cluster cell: " +
                          std::to_string(cell.sys.e2eUs.count()) + " of " +
                          std::to_string(cellCfg.requests) +
                          " requests completed");
    addCluster(out.digest, cell);
    out.simRequests += static_cast<double>(cell.sys.e2eUs.count());
    if (maxOk["cpu"] > 0)
        out.headline["rpu_cpu_max_qos_kqps"] =
            maxOk["rpu_split"] / maxOk["cpu"];
    out.headline["cluster_achieved_frac"] =
        cell.sys.achievedQps / cell.sys.offeredQps;
}

PassResult
runPass(const PassSpec &spec, TimedPart &timed)
{
    setDefaultThreads(spec.threads);
    PassResult out;
    if (spec.workload == "chip_sweep") {
        // Set-up: build and prove every program once.
        buildServices();
        auto cells = chipCells(spec);
        timed.start();
        if (spec.setupOnly) {
            timed.stop();
            return out;
        }
        auto runs = runCells(cells, spec.threads);
        timed.stop();
        finishChip(spec, cells, runs, out);
    } else if (spec.workload == "design_sweep") {
        auto services = buildServices();
        auto probes = designProbes(services.size());
        timed.start();
        if (spec.setupOnly) {
            timed.stop();
            return out;
        }
        std::vector<tune::TuneResult> tuned;
        for (const auto &svc : services)
            tuned.push_back(tune::tuneBatchSize(
                *svc, tunerConfig(spec, svc->traits().name)));
        std::vector<simt::SimtStats> stats(probes.size());
        parallelFor(probes.size(), [&](size_t i) {
            const Probe &p = probes[i];
            const svc::Service &svc = *services[p.service];
            const tune::TunerConfig tcfg =
                tunerConfig(spec, svc.traits().name);
            stats[i] = measureEfficiency(svc, p.policy, p.reconv, p.width,
                                         tcfg.profileRequests, tcfg.seed)
                           .stats;
        }, spec.threads);
        timed.stop();
        finishDesign(spec, services, tuned, probes, stats, out);
    } else if (spec.workload == "cluster") {
        auto grid = scenarioGrid(spec);
        auto cellCfg = clusterCell(spec);
        timed.start();
        if (spec.setupOnly) {
            timed.stop();
            return out;
        }
        std::vector<sys::SysResult> points(grid.size());
        parallelFor(grid.size(), [&](size_t i) {
            points[i] = sys::runUserScenario(grid[i].cfg);
        }, spec.threads);
        auto cell = sys::runCluster(cellCfg);
        timed.stop();
        finishCluster(spec, grid, points, cellCfg, cell, out);
    } else {
        simr_fatal("unknown workload '%s'", spec.workload.c_str());
    }
    return out;
}

} // namespace perfbench
