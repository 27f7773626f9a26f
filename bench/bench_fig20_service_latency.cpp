/**
 * @file
 * Figure 20: service latency of the RPU and the SMT-8 CPU relative to
 * the single-threaded CPU. Paper result: RPU ~1.44x on average (worst
 * ~1.7x on HDSearch-midtier), within the 2x data-center limit; SMT-8
 * ~5x.
 */

#include "bench_common.h"

using namespace simr;
using namespace simr::bench;

int
main()
{
    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;

    const auto runs = runAllServices(
        {core::makeRpuConfig(), core::makeSmt8Config()}, opt);
    const auto &rpu_runs = runs[0];
    const auto &smt_runs = runs[1];

    Table t("Figure 20: service latency relative to single-threaded CPU");
    t.header({"service", "CPU (us)", "RPU", "CPU-SMT8"});
    std::vector<double> rpu_r, smt_r;
    for (const auto &name : svc::serviceNames()) {
        const auto &rr = rpu_runs.at(name);
        const auto &sr = smt_runs.at(name);
        rpu_r.push_back(rr.latencyRatio());
        smt_r.push_back(sr.latencyRatio());
        t.row({name, Table::num(rr.cpu.core.meanLatencyUs(), 2),
               Table::mult(rr.latencyRatio()),
               Table::mult(sr.latencyRatio())});
    }
    t.row({"AVERAGE", "", Table::mult(geomean(rpu_r)),
           Table::mult(geomean(smt_r))});
    t.print();

    std::printf("paper: RPU ~1.44x (worst ~1.7x), SMT8 ~5x single-thread "
                "latency; 2x is the acceptability limit\n");
    return 0;
}
