/**
 * @file
 * Harness scaling micro-bench: wall-clock for the full 14-service RPU
 * timing sweep at 1/2/4/N harness threads, plus a cross-thread-count
 * determinism check (per-service TimingRun records, simr/records.h,
 * must be bit-identical at any worker count -- the harness contract).
 *
 * Emits a machine-readable summary both to stdout (one line prefixed
 * "BENCH_harness.json: ") and to the file BENCH_harness.json in the
 * working directory, seeding the perf trajectory across PRs.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "simr/records.h"

using namespace simr;
using namespace simr::bench;

int
main()
{
    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;

    std::vector<Cell> cells;
    for (const auto &name : svc::serviceNames())
        cells.push_back({name, core::makeRpuConfig(), opt});

    std::vector<int> counts = {1, 2, 4};
    int hw = hardwareThreads();
    if (hw > counts.back())
        counts.push_back(hw);

    Table t("Harness scaling: 14-service RPU sweep (" +
            std::to_string(opt.requests) + " requests/service)");
    t.header({"threads", "wall (s)", "speedup vs 1T", "deterministic"});

    std::vector<double> secs;
    std::vector<TimingRun> reference;
    bool all_same = true;
    for (int nt : counts) {
        auto t0 = std::chrono::steady_clock::now();
        auto runs = runCells(cells, nt);
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        secs.push_back(s);

        bool same = true;
        if (reference.empty()) {
            reference = runs;
        } else {
            for (size_t i = 0; i < runs.size(); ++i)
                same = identicalRecords(stderr,
                                        cells[i].service + " at " +
                                            std::to_string(nt) +
                                            " threads",
                                        reference[i], runs[i]) &&
                    same;
        }
        all_same = all_same && same;
        t.row({std::to_string(nt), Table::num(s, 2),
               Table::mult(secs.front() / s), same ? "yes" : "NO"});
    }
    t.print();

    if (hw < 4)
        std::printf("note: only %d hardware thread(s) -- speedup is "
                    "bounded by the machine, not the harness\n", hw);

    std::string json = "{\"bench\": \"harness_scaling\", \"services\": " +
        std::to_string(cells.size()) + ", \"requests\": " +
        std::to_string(opt.requests) + ", \"hw_threads\": " +
        std::to_string(hw) + ", \"threads\": [";
    for (size_t i = 0; i < counts.size(); ++i)
        json += (i ? ", " : "") + std::to_string(counts[i]);
    json += "], \"seconds\": [";
    for (size_t i = 0; i < secs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", secs[i]);
        json += (i ? ", " : "") + std::string(buf);
    }
    char buf[32];
    // Speedup at the 4-thread row (index 2), the acceptance metric.
    std::snprintf(buf, sizeof(buf), "%.2f", secs[0] / secs[2]);
    json += "], \"speedup_4t\": " + std::string(buf) +
        ", \"deterministic\": " + (all_same ? "true" : "false") + "}";

    std::printf("BENCH_harness.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_harness.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return all_same ? 0 : 1;
}
