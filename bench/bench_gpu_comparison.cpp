/**
 * @file
 * Section V-A3: running the microservices on an Ampere-like GPU model
 * with the same software optimizations as the RPU (stack coalescing,
 * batching), assuming it could execute the CPU ISA and system calls.
 * Paper result: ~28x the CPU's energy efficiency but at ~79x its
 * service latency -- unacceptable for QoS-bound services, which is the
 * motivation for the RPU's OoO SIMT middle ground.
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
        {core::makeGpuConfig(), core::makeRpuConfig()}, opt);
    const auto &gpu_runs = runs[0];
    const auto &rpu_runs = runs[1];

    Table t("GPU vs RPU vs CPU (energy efficiency and latency)");
    t.header({"service", "GPU req/J", "GPU latency", "RPU req/J",
              "RPU latency"});
    std::vector<double> ge, gl, re, rl;
    for (const auto &name : svc::serviceNames()) {
        const auto &g = gpu_runs.at(name);
        const auto &r = rpu_runs.at(name);
        ge.push_back(g.energyRatio());
        gl.push_back(g.latencyRatio());
        re.push_back(r.energyRatio());
        rl.push_back(r.latencyRatio());
        t.row({name, Table::mult(g.energyRatio()),
               Table::mult(g.latencyRatio()),
               Table::mult(r.energyRatio()),
               Table::mult(r.latencyRatio())});
    }
    t.row({"AVERAGE", Table::mult(geomean(ge)), Table::mult(geomean(gl)),
           Table::mult(geomean(re)), Table::mult(geomean(rl))});
    t.print();

    std::printf("paper: GPU ~28x energy efficiency at ~79x latency; "
                "RPU ~5.7x at ~1.44x -- the only point inside the 2x "
                "QoS envelope\n");
    return 0;
}
