/**
 * @file
 * Core simulation-speed bench and event-driven determinism gate.
 *
 * Runs the full 14-service sweep under every design point (CPU, SMT-8,
 * RPU, GPU-like) twice -- once with the per-cycle reference loop, once
 * with the event-driven cycle-skipping loop -- and
 *
 *  1. gates that every reported statistic of every cell is bit-identical
 *     between the two modes: the TimingRun records of simr/records.h
 *     (cycles, IPC inputs, the full latency histogram, every counter,
 *     all cache/TLB/BP/MCU stats and energy; CoreResult::skippedCycles
 *     / skipJumps are diagnostics of the loop itself and deliberately
 *     excluded), printing the differing keys of any diverged cell, and
 *  2. measures simulation speed (simulated kilo-instructions per wall
 *     second) per config and the event-driven speedup.
 *
 * Emits a machine-readable summary to stdout (one line prefixed
 * "BENCH_core.json: ") and to the file BENCH_core.json. Exits nonzero
 * if any cell diverges.
 *
 * `--verify` runs the gate alone at a reduced request count (the tier-1
 * ctest entry `core_event_driven_gate`): no timing, no JSON, just the
 * 14 x 4 x 2 equivalence check.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "simr/runner.h"
#include "simr/records.h"

using namespace simr;

namespace
{

struct ConfigRow
{
    std::string name;
    double refSecs = 0;
    double eventSecs = 0;
    double kopsRef = 0;     ///< simulated kilo-insts / wall second
    double kopsEvent = 0;
    double skippedFrac = 0; ///< skipped cycles / total cycles (event mode)
    bool identical = true;
};

/**
 * Sweep all services under `cfg` in one mode `reps` times; returns the
 * (deterministic, rep-independent) runs and the minimum wall time. The
 * min over repetitions is the standard noise filter for wall-clock
 * microbenchmarks: scheduling hiccups only ever add time.
 */
std::vector<TimingRun>
sweep(core::CoreConfig cfg, bool event_driven, const TimingOptions &opt,
      int reps, double *secs)
{
    cfg.eventDriven = event_driven;
    std::vector<Cell> cells;
    for (const auto &name : svc::serviceNames())
        cells.push_back({name, cfg, opt});
    std::vector<TimingRun> runs;
    *secs = 0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        runs = runCells(cells);
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < *secs)
            *secs = s;
    }
    return runs;
}

ConfigRow
compareConfig(const core::CoreConfig &cfg, const TimingOptions &opt,
              int reps)
{
    ConfigRow row;
    row.name = cfg.name;

    auto ref = sweep(cfg, false, opt, reps, &row.refSecs);
    auto event = sweep(cfg, true, opt, reps, &row.eventSecs);

    uint64_t insts = 0, cycles = 0, skipped = 0, jumps = 0;
    const auto &names = svc::serviceNames();
    for (size_t i = 0; i < ref.size(); ++i) {
        const std::string cell = names[i] + "/" + cfg.name;
        row.identical =
            identicalRecords(stderr, cell, ref[i], event[i]) && row.identical;
        if (ref[i].core.skippedCycles != 0) {
            // The reference loop must never skip: that would mean the
            // gate compared event-driven against itself.
            std::fprintf(stderr, "%s: reference loop skipped\n", cell.c_str());
            row.identical = false;
        }
        insts += event[i].core.scalarInsts;
        cycles += event[i].core.cycles;
        skipped += event[i].core.skippedCycles;
        jumps += event[i].core.skipJumps;
    }
    (void)jumps;
    row.kopsRef = static_cast<double>(insts) / row.refSecs / 1e3;
    row.kopsEvent = static_cast<double>(insts) / row.eventSecs / 1e3;
    row.skippedFrac = cycles ? static_cast<double>(skipped) /
        static_cast<double>(cycles) : 0.0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool verify_only = onlyFlag(argc, argv, "--verify");

    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    if (verify_only && opt.requests > 128)
        opt.requests = 128;
    opt.seed = scale.seed;

    std::vector<core::CoreConfig> cfgs = {
        core::makeCpuConfig(), core::makeSmt8Config(),
        core::makeRpuConfig(), core::makeGpuConfig(),
    };

    std::vector<ConfigRow> rows;
    bool all_identical = true;
    int reps = verify_only ? 1 : 3;
    for (const auto &cfg : cfgs) {
        rows.push_back(compareConfig(cfg, opt, reps));
        all_identical = all_identical && rows.back().identical;
    }

    if (verify_only) {
        for (const auto &r : rows)
            std::printf("%-10s %s\n", r.name.c_str(),
                        r.identical ? "identical" : "DIVERGED");
        std::printf("core_event_driven_gate: %s (14 services x %zu "
                    "configs, %d requests)\n",
                    all_identical ? "PASS" : "FAIL", cfgs.size(),
                    opt.requests);
        return all_identical ? 0 : 1;
    }

    Table t("Core simulation speed: 14-service sweep, per-cycle vs "
            "event-driven (" + std::to_string(opt.requests) +
            " requests/service)");
    t.header({"config", "ref (s)", "event (s)", "speedup", "ksim-inst/s",
              "skipped", "identical"});
    for (const auto &r : rows) {
        t.row({r.name, Table::num(r.refSecs, 2), Table::num(r.eventSecs, 2),
               Table::mult(r.refSecs / r.eventSecs),
               Table::num(r.kopsEvent, 0),
               Table::pct(r.skippedFrac), r.identical ? "yes" : "NO"});
    }
    t.print();

    std::string json = "{\"bench\": \"core_speed\", \"services\": 14, "
        "\"requests\": " + std::to_string(opt.requests) + ", \"configs\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ref_seconds\": %.3f, "
                      "\"event_seconds\": %.3f, \"speedup\": %.2f, "
                      "\"ksim_insts_per_sec\": %.0f, "
                      "\"skipped_cycle_frac\": %.4f, \"identical\": %s}",
                      r.name.c_str(), r.refSecs, r.eventSecs,
                      r.refSecs / r.eventSecs, r.kopsEvent, r.skippedFrac,
                      r.identical ? "true" : "false");
        json += (i ? ", " : "") + std::string(buf);
    }
    json += "], \"all_identical\": ";
    json += all_identical ? "true" : "false";
    json += "}";

    std::printf("BENCH_core.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_core.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return all_identical ? 0 : 1;
}
