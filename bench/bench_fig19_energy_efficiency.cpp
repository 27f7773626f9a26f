/**
 * @file
 * Figure 19: energy efficiency (requests/joule) of the RPU and the
 * SMT-8 CPU, normalized to the single-threaded CPU. Paper result: RPU
 * ~5.7x on average (leaves below average), CPU-SMT8 ~1.05x.
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

    Table t("Figure 19: requests/joule relative to single-threaded CPU "
            "(" + std::to_string(opt.requests) + " requests/service)");
    t.header({"service", "CPU req/J", "RPU", "CPU-SMT8"});
    std::vector<double> rpu_r, smt_r;
    for (const auto &name : svc::serviceNames()) {
        const auto &rr = rpu_runs.at(name);
        const auto &sr = smt_runs.at(name);
        rpu_r.push_back(rr.energyRatio());
        smt_r.push_back(sr.energyRatio());
        t.row({name, Table::num(rr.cpu.reqPerJoule(), 0),
               Table::mult(rr.energyRatio()),
               Table::mult(sr.energyRatio())});
    }
    t.row({"AVERAGE", "", Table::mult(geomean(rpu_r)),
           Table::mult(geomean(smt_r))});
    t.print();

    std::printf("paper: RPU ~5.7x, CPU-SMT8 ~1.05x requests/joule vs "
                "CPU\n");
    return 0;
}
