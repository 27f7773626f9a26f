/**
 * @file
 * Figure 21: the metrics behind the RPU's modest (1.44x) service
 * latency increase despite a 2.3x slower L1 hit and 4x ALU latency:
 * ~4x less L1 traffic and ~1.33x lower average memory latency (less
 * contention + single-hop crossbar), plus sub-batch interleaving
 * raising IPC utilization.
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

    const auto runs = runAllServices({core::makeRpuConfig()}, opt)[0];

    Table t("Figure 21: latency-contributing metrics (RPU vs CPU)");
    t.header({"service", "L1 traffic", "avg mem latency", "CPU IPC",
              "RPU IPC (scalar)", "latency"});
    std::vector<double> traffic, memlat, lat;
    for (const auto &name : svc::serviceNames()) {
        const auto &r = runs.at(name);
        double tr = static_cast<double>(r.other.core.l1Stats.accesses) /
            static_cast<double>(r.cpu.core.l1Stats.accesses);
        double ml = r.other.core.hierStats.avgLatency() /
            r.cpu.core.hierStats.avgLatency();
        traffic.push_back(tr);
        memlat.push_back(ml);
        lat.push_back(r.latencyRatio());
        t.row({name, Table::mult(tr), Table::mult(ml),
               Table::num(r.cpu.core.ipc(), 2),
               Table::num(r.other.core.ipc(), 2),
               Table::mult(r.latencyRatio())});
    }
    t.row({"AVERAGE", Table::mult(geomean(traffic)),
           Table::mult(geomean(memlat)), "", "",
           Table::mult(geomean(lat))});
    t.print();

    std::printf("paper: ~0.25x traffic, ~0.75x (1.33x lower) average "
                "memory latency, CPU IPC 0.3-1, latency ~1.44x\n");
    return 0;
}
