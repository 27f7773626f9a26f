#include "plan.h"

#include <chrono>
#include <ctime>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/metrics.h"

namespace simr::bench
{

namespace
{

std::unique_ptr<svc::Service>
service(const std::string &name)
{
    auto svc = svc::buildService(name);
    simr_assert(svc != nullptr, "unknown service in the plan");
    return svc;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

} // namespace

TimingRun
runItem(const Cell &cell)
{
    return runTiming(*service(cell.service), cell.cfg, cell.opt);
}

EfficiencyResult
runItem(const EffProbe &p)
{
    return measureEfficiency(*service(p.service), p.policy, p.reconv,
                             p.width, p.requests, p.seed);
}

CacheStudyResult
runItem(const CacheProbe &p)
{
    auto svc = service(p.service);
    return p.rpu ? studyRpuCache(*svc, p.batch, p.opt) :
        studyCpuCache(*svc, p.opt);
}

sys::SysResult
runItem(const sys::SysConfig &cfg)
{
    return sys::runUserScenario(cfg);
}

void
Plan::run()
{
    // One task per distinct item: kind by kind, timing cells first.
    std::vector<std::function<void()>> tasks;
    std::apply([&](auto &...k) {
        auto queue = [&](auto &kind) {
            kind.results.resize(kind.items.size());
            for (size_t i = 0; i < kind.items.size(); ++i)
                tasks.push_back([&kind, i] {
                    kind.results[i] = runItem(kind.items[i]);
                });
        };
        (queue(k), ...);
    }, kinds_);

    workers_ = std::max(
        1, std::min(defaultThreads(), static_cast<int>(tasks.size())));
    std::vector<double> busy(tasks.size());
    const auto t0 = std::chrono::steady_clock::now();
    const std::clock_t c0 = std::clock();
    parallelFor(tasks.size(), [&](size_t i) {
        obs::Registry reg;
        obs::Scope scope(&reg, nullptr);
        const auto start = std::chrono::steady_clock::now();
        tasks[i]();
        busy[i] = secondsSince(start);
    });
    cpuS_ = static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    wallS_ = secondsSince(t0);
    busyS_ = 0;
    for (double b : busy)
        busyS_ += b;
}

std::string
Plan::ledger() const
{
    std::string items;
    std::apply([&](const auto &...k) {
        ((items += std::string(items.empty() ? "" : ", ") + "\"" + k.name +
              "\": {\"declared\": " + std::to_string(k.declared) +
              ", \"run\": " + std::to_string(k.items.size()) + "}"),
         ...);
    }, kinds_);
    double idle = busyS_ > 0 ? 1.0 - busyS_ / (wallS_ * workers_) : 0.0;
    return "\"items\": {" + items + "}, \"fanout\": {\"workers\": " +
        std::to_string(workers_) + ", \"wall_s\": " + Table::num(wallS_, 3) +
        ", \"cpu_s\": " + Table::num(cpuS_, 3) + ", \"busy_s\": " +
        Table::num(busyS_, 3) + ", \"idle_frac\": " + Table::num(idle, 3) +
        "}";
}

} // namespace simr::bench
