/**
 * @file
 * simr_reproduce: regenerate every table and figure of the paper, plus
 * the sensitivity studies and extensions, in one process.
 *
 *   simr_reproduce [--only <fig>[,<fig>...]]
 *
 * Each figure is a function that declares the runs it needs in a shared
 * Plan and returns the closure that renders its table from the results.
 * The plan runs each distinct run once, so a chip cell that five
 * figures compare against is simulated once. Figures print in suite
 * order; `--only` takes names from the kFigures table
 * (`fig19_energy_efficiency`). Scale comes from SIMR_REQUESTS,
 * SIMR_TIMING_REQUESTS, SIMR_SEED and SIMR_THREADS.
 *
 * Besides stdout, the run writes BENCH_e2e.json: items declared vs run
 * per kind, the fan-out's wall and CPU time, worker idle fraction and
 * total wall time. Fig. 22 also writes BENCH_fig22.json.
 *
 * Exit codes: 0 success, 2 unknown argument or figure name.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "energy/area.h"
#include "plan.h"
#include "simr/tuner.h"

using namespace simr;
using namespace simr::bench;

namespace
{

using Render = std::function<void()>;

double
geomean(const std::vector<double> &xs)
{
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0;
    for (double x : xs)
        sum += x / static_cast<double>(xs.size());
    return sum;
}

std::string num0(double v) { return Table::num(v, 0); }
std::string num1(double v) { return Table::num(v, 1); }
std::string num2(double v) { return Table::num(v, 2); }
std::string pct(double v) { return Table::pct(v); }
std::string mult(double v) { return Table::mult(v); }

/** One column of a per-service table. */
struct Column
{
    const char *header;
    std::string (*print)(double);
    /** What the AVERAGE row shows; null leaves the cell empty. */
    double (*average)(const std::vector<double> &) = nullptr;
};

/**
 * Print a table with one row per name, its values from row(i), and,
 * when any column averages, a closing AVERAGE row.
 */
void
serviceTable(const std::string &title, const std::vector<Column> &cols,
             const std::function<std::vector<double>(size_t)> &row,
             const std::vector<std::string> &names = svc::serviceNames())
{
    Table t(title);
    std::vector<std::string> cells = {"service"};
    for (const auto &c : cols)
        cells.push_back(c.header);
    t.header(cells);
    std::vector<std::vector<double>> values(cols.size());
    for (size_t i = 0; i < names.size(); ++i) {
        const std::vector<double> v = row(i);
        cells = {names[i]};
        for (size_t c = 0; c < cols.size(); ++c) {
            values[c].push_back(v[c]);
            cells.push_back(cols[c].print(v[c]));
        }
        t.row(cells);
    }
    if (std::any_of(cols.begin(), cols.end(),
                    [](const Column &c) { return c.average; })) {
        cells = {"AVERAGE"};
        for (size_t c = 0; c < cols.size(); ++c)
            cells.push_back(cols[c].average ?
                            cols[c].print(cols[c].average(values[c])) : "");
        t.row(cells);
    }
    t.print();
}

double
energyRatio(const TimingRun &other, const TimingRun &cpu)
{
    return other.reqPerJoule() / cpu.reqPerJoule();
}

double
latencyRatio(const TimingRun &other, const TimingRun &cpu)
{
    return other.core.meanLatencySeconds() / cpu.core.meanLatencySeconds();
}

/** Timing options of the chip-level figures at this scale. */
TimingOptions
timingOptions(const RunScale &scale)
{
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;
    return opt;
}

/** The cell runCells runs for `service` under `cfg`: its options carry
 *  the identity-derived cellSeed. */
Handle<Cell>
cell(Plan &p, const std::string &service, const core::CoreConfig &cfg,
     TimingOptions opt)
{
    opt.seed = cellSeed(opt.seed, service, cfg);
    return p.add(Cell{service, cfg, opt});
}

/** One cell per service under `cfg`, in serviceNames() order. */
std::vector<Handle<Cell>>
sweep(Plan &p, const core::CoreConfig &cfg, const RunScale &scale)
{
    std::vector<Handle<Cell>> out;
    for (const auto &name : svc::serviceNames())
        out.push_back(cell(p, name, cfg, timingOptions(scale)));
    return out;
}

/* Figure 4: SIMT efficiency of naive (arrival-order) batching. */
Render
fig04(Plan &p, const RunScale &scale)
{
    int n = static_cast<int>(scale.requests);
    std::vector<Handle<EffProbe>> effs;
    for (const auto &name : svc::serviceNames())
        effs.push_back(p.add(EffProbe{name, batch::Policy::Naive,
                                      simt::ReconvPolicy::MinSpPc, 32, n,
                                      scale.seed}));
    return [&p, n, effs] {
        serviceTable("Figure 4: SIMT efficiency of naive batching "
                     "(batch=32, " + std::to_string(n) +
                         " requests, MinSP-PC)",
                     {{"SIMT efficiency", pct, geomean},
                      {"diverge events/batch", num1}},
                     [&](size_t i) -> std::vector<double> {
                         const auto &s = p[effs[i]].stats;
                         return {s.efficiency(),
                                 s.batches ?
                                     static_cast<double>(s.divergeEvents) /
                                         static_cast<double>(s.batches) :
                                     0};
                     });
        std::printf("paper: ~68%% average naive SIMT efficiency\n");
    };
}

/* Figure 5: the threads/socket that off-chip DRAM bandwidth calls for. */
Render
fig05(Plan &, const RunScale &)
{
    return [] {
        struct Gen
        {
            const char *name;
            double gbps;
        };
        const Gen gens[] = {
            {"DDR4-3200 (8ch)", 200},
            {"DDR5-4800 (8ch)", 307},
            {"DDR5-7200 (10ch)", 576},
            {"DDR6 (10ch)", 1100},
            {"HBM2e (4 stacks)", 1600},
        };

        const double gb_per_thread = 2.0;
        Table t("Figure 5: off-chip bandwidth and threads/socket to use "
                "it");
        t.header({"memory generation", "BW (GB/s)",
                  "threads @2GB/s/thread", "64-thread MIMD sockets"});
        for (const auto &g : gens) {
            double threads = g.gbps / gb_per_thread;
            t.row({g.name, Table::num(g.gbps, 0), Table::num(threads, 0),
                   Table::num(threads / 64.0, 1)});
        }
        t.print();

        std::printf("paper: DDR5 needs ~256 threads/socket, DDR6/HBM "
                    "~512+; SIMT thread aggregation scales there, MIMD "
                    "does not\n");
    };
}

/* Figure 10: CPU dynamic energy per pipeline stage. */
Render
fig10(Plan &p, const RunScale &scale)
{
    auto cpu = sweep(p, core::makeCpuConfig(), scale);
    return [&p, cpu] {
        serviceTable(
            "Figure 10: CPU dynamic energy breakdown per pipeline stage",
            {{"frontend+OoO", pct, mean}, {"execution", pct, mean},
             {"memory", pct, mean}},
            [&](size_t i) -> std::vector<double> {
                const auto &e = p[cpu[i]].energy;
                double dyn = e.dynamicTotal();
                return {(e.frontendOoo + e.simtOverhead) / dyn,
                        e.execution / dyn, e.memory / dyn};
            });
        std::printf("paper: ~73%% frontend+OoO average; HDSearch-leaf "
                    "~39%%, Recommender-leaf ~60%%; memory ~20%%\n");
    };
}

/* Figure 11: SIMT efficiency under the SIMR-aware batching policies. */
Render
fig11(Plan &p, const RunScale &scale)
{
    int n = static_cast<int>(scale.requests);
    // Per service: naive, per-API, per-API+arg-size (stack), per-API+
    // arg-size (MinSP-PC).
    std::vector<Handle<EffProbe>> effs;
    for (const auto &name : svc::serviceNames())
        for (auto [policy, reconv] :
             {std::pair{batch::Policy::Naive, simt::ReconvPolicy::MinSpPc},
              std::pair{batch::Policy::PerApi, simt::ReconvPolicy::MinSpPc},
              std::pair{batch::Policy::PerApiArgSize,
                        simt::ReconvPolicy::StackIpdom},
              std::pair{batch::Policy::PerApiArgSize,
                        simt::ReconvPolicy::MinSpPc}})
            effs.push_back(
                p.add(EffProbe{name, policy, reconv, 32, n, scale.seed}));
    return [&p, n, effs] {
        serviceTable("Figure 11: SIMT efficiency by batching policy "
                     "(batch=32, " + std::to_string(n) + " requests)",
                     {{"naive", pct, geomean}, {"per-api", pct, geomean},
                      {"per-api+arg (ideal stack)", pct, geomean},
                      {"per-api+arg (MinSP-PC)", pct, geomean}},
                     [&](size_t i) {
                         std::vector<double> row;
                         for (size_t c = 0; c < 4; ++c)
                             row.push_back(p[effs[4 * i + c]].efficiency());
                         return row;
                     });
        std::printf("paper: stack-based 92%%, MinSP-PC 91%% average; "
                    "per-API ~2x memcached / ~4x post; arg-size up to ~5x "
                    "on search-leaf and text\n");
    };
}

/** Cache-study options of Figs. 14 and 15 (the paper's 640 threads). */
CacheStudyOptions
studyOptions(const RunScale &scale, uint64_t l1_kb)
{
    CacheStudyOptions opt;
    opt.requests = 640;
    opt.seed = scale.seed;
    opt.l1KB = l1_kb;
    return opt;
}

/* Figure 14: RPU L1 accesses normalized to the CPU's, same requests. */
Render
fig14(Plan &p, const RunScale &scale)
{
    const CacheStudyOptions opt = studyOptions(scale, 256);
    std::vector<Handle<CacheProbe>> cpu, rpu;
    for (const auto &name : svc::serviceNames()) {
        cpu.push_back(p.add(CacheProbe{name, false, 0, opt}));
        int bs = svc::buildService(name)->traits().tunedBatch;
        rpu.push_back(p.add(CacheProbe{name, true, bs, opt}));
    }
    return [&p, cpu, rpu] {
        serviceTable(
            "Figure 14: RPU L1 accesses normalized to CPU (640 requests)",
            {{"CPU accesses", num0}, {"RPU accesses", num0},
             {"RPU/CPU", mult, geomean}, {"stack-coalesced", pct},
             {"same-word", pct}, {"divergent", pct}},
            [&](size_t i) -> std::vector<double> {
                double c = static_cast<double>(p[cpu[i]].l1Accesses);
                double r = static_cast<double>(p[rpu[i]].l1Accesses);
                const auto &mcu = p[rpu[i]].mcu;
                double total = static_cast<double>(mcu.batchMemInsts);
                auto share = [&](uint64_t n) { return total ? n / total : 0; };
                return {c, r, r / c, share(mcu.stackCoalesced),
                        share(mcu.sameWord), share(mcu.divergent)};
            });
        std::printf("paper: RPU generates ~4x fewer L1 accesses (ratio "
                    "~0.25x) on average\n");
    };
}

/* Figure 15: L1 MPKI, CPU (64KB L1) vs RPU (256KB L1) by batch size. */
Render
fig15(Plan &p, const RunScale &scale)
{
    // Per service: the CPU study, then the RPU at 32, 16, 8 and 4.
    std::vector<Handle<CacheProbe>> studies;
    for (const auto &name : svc::serviceNames()) {
        studies.push_back(
            p.add(CacheProbe{name, false, 0, studyOptions(scale, 64)}));
        for (int bs : {32, 16, 8, 4})
            studies.push_back(p.add(
                CacheProbe{name, true, bs, studyOptions(scale, 256)}));
    }
    return [&p, studies] {
        serviceTable("Figure 15: L1 MPKI, CPU 64KB vs RPU 256KB by batch size",
                     {{"CPU", num1}, {"RPU-32", num1}, {"RPU-16", num1},
                      {"RPU-8", num1}, {"RPU-4", num1}},
                     [&](size_t i) {
                         std::vector<double> row;
                         for (size_t c = 0; c < 5; ++c)
                             row.push_back(p[studies[5 * i + c]].mpki());
                         return row;
                     });
        std::printf("paper: leaves (search-leaf, hdsearch-leaf) thrash at "
                    "batch 32 and recover at batch 8; other services "
                    "improve on the CPU at batch 32\n");
    };
}

/* Figure 19: requests/joule relative to the single-threaded CPU. */
Render
fig19(Plan &p, const RunScale &scale)
{
    auto cpu = sweep(p, core::makeCpuConfig(), scale);
    auto rpu = sweep(p, core::makeRpuConfig(), scale);
    auto smt = sweep(p, core::makeSmt8Config(), scale);
    return [&p, scale, cpu, rpu, smt] {
        serviceTable(
            "Figure 19: requests/joule relative to single-threaded CPU (" +
                std::to_string(scale.timingRequests) + " requests/service)",
            {{"CPU req/J", num0}, {"RPU", mult, geomean},
             {"CPU-SMT8", mult, geomean}},
            [&](size_t i) -> std::vector<double> {
                const auto &c = p[cpu[i]];
                return {c.reqPerJoule(), energyRatio(p[rpu[i]], c),
                        energyRatio(p[smt[i]], c)};
            });
        std::printf("paper: RPU ~5.7x, CPU-SMT8 ~1.05x requests/joule vs "
                    "CPU\n");
    };
}

/* Figure 20: service latency relative to the single-threaded CPU. */
Render
fig20(Plan &p, const RunScale &scale)
{
    auto cpu = sweep(p, core::makeCpuConfig(), scale);
    auto rpu = sweep(p, core::makeRpuConfig(), scale);
    auto smt = sweep(p, core::makeSmt8Config(), scale);
    return [&p, cpu, rpu, smt] {
        serviceTable(
            "Figure 20: service latency relative to single-threaded CPU",
            {{"CPU (us)", num2}, {"RPU", mult, geomean},
             {"CPU-SMT8", mult, geomean}},
            [&](size_t i) -> std::vector<double> {
                const auto &c = p[cpu[i]];
                return {c.core.meanLatencyUs(), latencyRatio(p[rpu[i]], c),
                        latencyRatio(p[smt[i]], c)};
            });
        std::printf("paper: RPU ~1.44x (worst ~1.7x), SMT8 ~5x "
                    "single-thread latency; 2x is the acceptability "
                    "limit\n");
    };
}

/* Figure 21: why the RPU latency holds despite slower L1 and ALUs. */
Render
fig21(Plan &p, const RunScale &scale)
{
    auto cpu = sweep(p, core::makeCpuConfig(), scale);
    auto rpu = sweep(p, core::makeRpuConfig(), scale);
    return [&p, cpu, rpu] {
        serviceTable(
            "Figure 21: latency-contributing metrics (RPU vs CPU)",
            {{"L1 traffic", mult, geomean}, {"avg mem latency", mult, geomean},
             {"CPU IPC", num2}, {"RPU IPC (scalar)", num2},
             {"latency", mult, geomean}},
            [&](size_t i) -> std::vector<double> {
                const auto &c = p[cpu[i]].core;
                const auto &r = p[rpu[i]].core;
                return {static_cast<double>(r.l1Stats.accesses) /
                            static_cast<double>(c.l1Stats.accesses),
                        r.hierStats.avgLatency() / c.hierStats.avgLatency(),
                        c.ipc(), r.ipc(), latencyRatio(p[rpu[i]], p[cpu[i]])};
            });
        std::printf("paper: ~0.25x traffic, ~0.75x (1.33x lower) average "
                    "memory latency, CPU IPC 0.3-1, latency ~1.44x\n");
    };
}

/*
 * Figure 22: end-to-end latency vs offered load of the User scenario on
 * CPU and RPU systems. The sweep also goes to BENCH_fig22.json (per
 * config the QPS grid with mean and p99, plus the max load meeting QoS)
 * for CI upload and plotting.
 */
Render
fig22(Plan &p, const RunScale &scale)
{
    struct Sweep
    {
        const char *label;
        const char *key;
        bool rpu;
        bool split;
        std::vector<double> kqps;
        std::vector<Handle<sys::SysConfig>> runs;
    };
    const std::vector<double> cpu_loads = {2, 4, 6, 8, 10, 12, 15, 18,
                                           20, 25};
    const std::vector<double> rpu_loads = {5, 10, 20, 30, 40, 50, 60, 70,
                                           80, 90, 100};
    std::vector<Sweep> sweeps = {
        {"CPU", "cpu", false, true, cpu_loads, {}},
        {"RPU w/ split", "rpu_split", true, true, rpu_loads, {}},
        {"RPU w/o split", "rpu_nosplit", true, false, rpu_loads, {}},
    };
    for (auto &sw : sweeps) {
        for (double kqps : sw.kqps) {
            sys::SysConfig cfg;
            cfg.qps = kqps * 1000;
            cfg.rpu = sw.rpu;
            cfg.batchSplit = sw.split;
            cfg.seed = scale.seed;
            sw.runs.push_back(p.add(cfg));
        }
    }
    return [&p, sweeps] {
        Table t("Figure 22: end-to-end latency vs offered load "
                "(User scenario)");
        t.header({"system", "load (kQPS)", "avg (us)", "p99 (us)"});
        std::string json_configs;
        std::vector<double> max_ok(sweeps.size(), 0);
        for (size_t s = 0; s < sweeps.size(); ++s) {
            const Sweep &sw = sweeps[s];
            std::string points;
            for (size_t i = 0; i < sw.kqps.size(); ++i) {
                const auto &r = p[sw.runs[i]];
                t.row({sw.label, Table::num(sw.kqps[i], 0),
                       Table::num(r.meanUs(), 0),
                       Table::num(r.p99Us(), 0)});
                // QoS: tail within ~1.5x the storage-path latency.
                if (r.p99Us() < 2500)
                    max_ok[s] = sw.kqps[i];
                // Loads are whole kQPS, so %.0f prints them as %g would.
                points += std::string(i ? ", " : "") + "{\"kqps\": " +
                    Table::num(sw.kqps[i], 0) + ", \"mean_us\": " +
                    Table::num(r.meanUs(), 2) + ", \"p99_us\": " +
                    Table::num(r.p99Us(), 2) + "}";
            }
            json_configs += std::string(s ? ", " : "") + "\"" + sw.key +
                "\": {\"max_ok_kqps\": " + Table::num(max_ok[s], 0) +
                ", \"points\": [" + points + "]}";
        }
        t.print();

        Table s("Figure 22 summary: max throughput at acceptable QoS");
        s.header({"system", "max kQPS", "vs CPU"});
        s.row({"CPU", Table::num(max_ok[0], 0), "1.00x"});
        for (size_t i = 1; i < sweeps.size(); ++i)
            s.row({sweeps[i].label, Table::num(max_ok[i], 0),
                   Table::mult(max_ok[i] / max_ok[0])});
        s.print();

        std::printf("paper: RPU ~4x max throughput (60 vs 15 kQPS) at "
                    "similar tail; w/o split the average latency rises to "
                    "the storage latency but tail stays acceptable\n");

        std::string json = std::string("{\"bench\": \"fig22\", ") +
            "\"configs\": {" + json_configs + "}}";
        std::printf("BENCH_fig22.json: %s\n", json.c_str());
        if (FILE *f = std::fopen("BENCH_fig22.json", "w")) {
            std::fprintf(f, "%s\n", json.c_str());
            std::fclose(f);
        }
    };
}

std::string
kb(uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

/* Table IV: the key rows of every simulated core flavour. */
Render
tab04(Plan &, const RunScale &)
{
    return [] {
        Table t("Table IV: simulated configurations");
        t.header({"metric", "CPU", "CPU-SMT8", "RPU", "GPU-like"});

        auto cpu = core::makeCpuConfig();
        auto smt = core::makeSmt8Config();
        auto rpu = core::makeRpuConfig();
        auto gpu = core::makeGpuConfig();
        auto row = [&](const char *name, auto get) {
            t.row({name, get(cpu), get(smt), get(rpu), get(gpu)});
        };
        using C = const core::CoreConfig &;

        row("cores", [](C c) { return std::to_string(c.chipCores); });
        row("threads/core", [](C c) {
            return std::to_string(c.smtThreads * c.batchWidth);
        });
        row("SIMT lanes", [](C c) { return std::to_string(c.lanes); });
        row("issue width", [](C c) { return std::to_string(c.issueWidth); });
        row("ROB entries", [](C c) { return std::to_string(c.robEntries); });
        row("in-order", [](C c) {
            return std::string(c.inOrder ? "yes" : "no");
        });
        row("freq (GHz)", [](C c) { return Table::num(c.freqGhz, 1); });
        row("ALU latency", [](C c) { return std::to_string(c.aluLat); });
        row("L1D", [](C c) {
            return kb(c.mem.l1.sizeBytes) + " x" +
                std::to_string(c.mem.l1.banks) + "b " +
                std::to_string(c.mem.l1HitLatency) + "cyc";
        });
        row("L1 TLB entries", [](C c) {
            return std::to_string(c.mem.tlb.entries);
        });
        row("L2", [](C c) {
            return kb(c.mem.l2.sizeBytes) + " " +
                std::to_string(c.mem.l2HitLatency) + "cyc";
        });
        row("interconnect", [](C c) {
            return std::string(c.mem.noc.kind == mem::NocKind::Mesh ?
                               "mesh" : "crossbar");
        });
        row("atomics", [](C c) {
            return std::string(c.mem.atomicsAtL3 ? "at L3" : "in L1");
        });
        row("DRAM B/cyc/core", [](C c) {
            return Table::num(c.mem.dram.bytesPerCycle *
                              c.mem.dram.channels, 1);
        });
        t.print();
    };
}

/* Table V: area and peak power at 7nm, per core component and chip. */
Render
tab05(Plan &, const RunScale &)
{
    return [] {
        auto cpu_cfg = core::makeCpuConfig();
        auto rpu_cfg = core::makeRpuConfig();
        auto cpu = energy::estimateCore(cpu_cfg);
        auto rpu = energy::estimateCore(rpu_cfg);

        Table t("Table V: per-component area and peak power (7nm)");
        t.header({"component", "CPU mm2", "CPU %", "CPU W", "RPU mm2",
                  "RPU %", "RPU W"});
        double ca = cpu.coreAreaMm2(), ra = rpu.coreAreaMm2();
        for (const auto &rc : rpu.comps) {
            const energy::ComponentAP *cc = nullptr;
            for (const auto &c : cpu.comps)
                if (c.name == rc.name)
                    cc = &c;
            t.row({rc.name,
                   cc ? Table::num(cc->areaMm2, 2) : "-",
                   cc ? Table::pct(cc->areaMm2 / ca) : "-",
                   cc ? Table::num(cc->peakWatts, 2) : "-",
                   Table::num(rc.areaMm2, 2),
                   Table::pct(rc.areaMm2 / ra),
                   Table::num(rc.peakWatts, 2)});
        }
        t.row({"TOTAL core", Table::num(ca, 2), "100.0%",
               Table::num(cpu.corePeakWatts(), 2), Table::num(ra, 2),
               "100.0%", Table::num(rpu.corePeakWatts(), 2)});
        t.print();

        auto cpu_chip = energy::estimateChip(cpu_cfg);
        auto rpu_chip = energy::estimateChip(rpu_cfg);
        Table c("Table V (chip level)");
        c.header({"metric", "CPU chip", "RPU chip", "ratio"});
        c.row({"cores", std::to_string(cpu_chip.cores),
               std::to_string(rpu_chip.cores), ""});
        c.row({"threads", std::to_string(cpu_chip.cores),
               std::to_string(rpu_chip.cores * rpu_cfg.batchWidth),
               Table::mult(rpu_chip.cores * rpu_cfg.batchWidth /
                           static_cast<double>(cpu_chip.cores))});
        c.row({"area (mm2)", Table::num(cpu_chip.chipAreaMm2(), 1),
               Table::num(rpu_chip.chipAreaMm2(), 1),
               Table::mult(rpu_chip.chipAreaMm2() /
                           cpu_chip.chipAreaMm2())});
        c.row({"peak power (W)", Table::num(cpu_chip.chipPeakWatts(), 1),
               Table::num(rpu_chip.chipPeakWatts(), 1),
               Table::mult(rpu_chip.chipPeakWatts() /
                           cpu_chip.chipPeakWatts())});
        double cpu_density = cpu_chip.cores / cpu_chip.chipAreaMm2();
        double rpu_density = rpu_chip.cores * rpu_cfg.batchWidth /
            rpu_chip.chipAreaMm2();
        c.row({"threads/mm2", Table::num(cpu_density, 3),
               Table::num(rpu_density, 3),
               Table::mult(rpu_density / cpu_density)});
        c.print();

        std::printf("paper: RPU core ~6.3x area / ~4.5x power for 32x "
                    "threads; RPU-only structures ~11.8%% of core; ~5.2x "
                    "thread density\n");
    };
}

/**
 * An RPU sensitivity table: per service, statistic `stat` (when given)
 * of arms x and y, their cycles, and cycles(y) / cycles(x), or
 * cycles(x) / cycles(y) when `speedup`.
 */
Render
abStudy(const Plan &p, std::vector<std::string> names,
        std::vector<Handle<Cell>> x, std::vector<Handle<Cell>> y,
        std::string title, std::vector<Column> cols,
        double (*stat)(const TimingRun &), bool speedup, std::string paper)
{
    return [=, &p] {
        serviceTable(title, cols, [&](size_t i) {
            const auto cx = static_cast<double>(p[x[i]].core.cycles);
            const auto cy = static_cast<double>(p[y[i]].core.cycles);
            std::vector<double> row;
            if (stat)
                row = {stat(p[x[i]]), stat(p[y[i]])};
            row.insert(row.end(), {cx, cy, speedup ? cx / cy : cy / cx});
            return row;
        }, names);
        std::printf("%s\n", paper.c_str());
    };
}

/* Sensitivity (Section V-A1): sub-batch interleaving, 8 vs 32 lanes. */
Render
sensSubbatch(Plan &p, const RunScale &scale)
{
    auto cfg8 = core::makeRpuConfig();
    cfg8.lanes = 8;
    auto cfg32 = core::makeRpuConfig();
    cfg32.lanes = 32;
    return abStudy(
        p, svc::serviceNames(), sweep(p, cfg32, scale), sweep(p, cfg8, scale),
        "Sub-batch interleaving: 8 SIMT lanes vs 32 full-width",
        {{"cycles @32 lanes", num0}, {"cycles @8 lanes", num0},
         {"slowdown", mult, geomean}},
        nullptr, false,
        "paper: ~4% average loss, up to ~10% (uniqueid), for a 4x "
        "narrower (cheaper) backend");
}

/*
 * Sensitivity (Section V-A1): atomics at the shared L3, as the RPU's
 * relaxed coherence requires, instead of in the private L1.
 */
Render
sensAtomicsL3(Plan &p, const RunScale &scale)
{
    auto l1_cfg = core::makeRpuConfig();
    l1_cfg.mem.atomicsAtL3 = false;
    return abStudy(
        p, svc::serviceNames(), sweep(p, l1_cfg, scale),
        sweep(p, core::makeRpuConfig(), scale),
        "Atomics at L3 vs in private L1 (RPU)",
        {{"cycles atomics@L1", num0}, {"cycles atomics@L3", num0},
         {"slowdown", mult, geomean}},
        nullptr, false,
        "paper: no slowdown from moving atomics to L3 (few atomic locks "
        "per instruction)");
}

/*
 * Sensitivity (Section V-A1 + Fig. 16): the SIMR-aware heap allocator
 * vs a glibc-like one on the banked L1.
 */
Render
sensAllocator(Plan &p, const RunScale &scale)
{
    // Full 32-wide batches make the bank pressure visible (the tuned
    // batch of 8 hides it behind the compute chains).
    TimingOptions glibc = timingOptions(scale);
    glibc.alloc = mem::AllocPolicy::GlibcLike;
    glibc.batchOverride = 32;
    TimingOptions simr = glibc;
    simr.alloc = mem::AllocPolicy::SimrAware;
    const std::vector<std::string> names = {"hdsearch-leaf", "search-leaf",
                                            "recommender-leaf",
                                            "hdsearch-mid"};
    std::vector<Handle<Cell>> rg, rs;
    for (const auto &name : names) {
        rg.push_back(cell(p, name, core::makeRpuConfig(), glibc));
        rs.push_back(cell(p, name, core::makeRpuConfig(), simr));
    }
    return abStudy(
        p, names, rg, rs,
        "SIMR-aware vs glibc-like heap allocation (RPU, banked L1)",
        {{"conflict cyc (glibc)", num0}, {"conflict cyc (simr)", num0},
         {"cycles (glibc)", num0}, {"cycles (simr)", num0},
         {"speedup", mult, geomean}},
        [](const TimingRun &r) {
            return static_cast<double>(r.core.hierStats.l1BankConflictCycles);
        },
        true,
        "paper: ~1.8x higher L1 throughput on divergent-heap HDSearch with "
        "the SIMR-aware allocator");
}

/*
 * Sensitivity (Section V-A1): majority-voting branch prediction vs
 * following one lane.
 */
Render
sensMajorityVoting(Plan &p, const RunScale &scale)
{
    auto lane_cfg = core::makeRpuConfig();
    lane_cfg.majorityVoteBp = false;
    return abStudy(
        p, svc::serviceNames(), sweep(p, core::makeRpuConfig(), scale),
        sweep(p, lane_cfg, scale), "Majority-voting BP vs single-lane BP (RPU)",
        {{"mispredicts (vote)", num0}, {"mispredicts (lane0)", num0},
         {"cycles (vote)", num0}, {"cycles (lane0)", num0},
         {"perf delta", mult, geomean}},
        [](const TimingRun &r) {
            return static_cast<double>(r.core.bpStats.mispredicts);
        },
        false,
        "paper: voting mitigates flushes from inevitable minority "
        "mispredictions; little performance impact");
}

/*
 * Section V-A3: an Ampere-like GPU with the RPU's software
 * optimizations, assuming it ran the CPU ISA.
 */
Render
gpuComparison(Plan &p, const RunScale &scale)
{
    auto cpu = sweep(p, core::makeCpuConfig(), scale);
    auto gpu = sweep(p, core::makeGpuConfig(), scale);
    auto rpu = sweep(p, core::makeRpuConfig(), scale);
    return [&p, cpu, gpu, rpu] {
        serviceTable(
            "GPU vs RPU vs CPU (energy efficiency and latency)",
            {{"GPU req/J", mult, geomean}, {"GPU latency", mult, geomean},
             {"RPU req/J", mult, geomean}, {"RPU latency", mult, geomean}},
            [&](size_t i) -> std::vector<double> {
                const auto &c = p[cpu[i]];
                const auto &g = p[gpu[i]];
                const auto &r = p[rpu[i]];
                return {energyRatio(g, c), latencyRatio(g, c),
                        energyRatio(r, c), latencyRatio(r, c)};
            });
        std::printf("paper: GPU ~28x energy efficiency at ~79x latency; "
                    "RPU ~5.7x at ~1.44x -- the only point inside the 2x "
                    "QoS envelope\n");
    };
}

/*
 * Extension: offline batch-size tuning (Section III-B3 says providers
 * tune offline). The tuner should re-derive the Fig. 15 rule -- 32 for
 * most services, 8 for the data-intensive leaves -- by itself.
 */
Render
extTuner(Plan &p, const RunScale &scale)
{
    tune::TunerConfig cfg;
    cfg.seed = scale.seed;
    std::vector<int> hand;
    // Per service, one RPU cache study per candidate batch size.
    std::vector<std::vector<Handle<CacheProbe>>> probes;
    for (const auto &name : svc::serviceNames()) {
        hand.push_back(svc::buildService(name)->traits().tunedBatch);
        probes.emplace_back();
        for (int bs : cfg.candidates)
            probes.back().push_back(p.add(
                CacheProbe{name, true, bs, tune::profileStudy(cfg)}));
    }
    return [&p, cfg, hand, probes] {
        int agree = 0;
        serviceTable(
            "Extension: offline batch-size tuner vs hand-tuned traits",
            {{"tuner choice", num0}, {"traits (hand)", num0},
             {"mpki@32", num1}, {"mpki@choice", num1},
             {"eff@choice", pct}},
            [&](size_t i) -> std::vector<double> {
                std::vector<tune::TunePoint> points;
                for (size_t c = 0; c < probes[i].size(); ++c)
                    points.push_back(tune::pointOf(cfg.candidates[c],
                                                   p[probes[i][c]]));
                auto r = tune::chooseBatch(points, cfg);
                tune::TunePoint at32, chosen;
                for (const auto &pt : r.points) {
                    if (pt.batchSize == 32)
                        at32 = pt;
                    if (pt.batchSize == r.chosenBatch)
                        chosen = pt;
                }
                agree += r.chosenBatch == hand[i] ? 1 : 0;
                return {static_cast<double>(r.chosenBatch),
                        static_cast<double>(hand[i]), at32.mpki,
                        chosen.mpki, chosen.efficiency};
            });
        std::printf("tuner agrees with the hand-tuned configuration on "
                    "%d/14 services\n", agree);
    };
}

/*
 * Extension: multi-batch interleaving (Section III-A leaves "hiding
 * longer microsecond-scale latencies by interleaving multiple batches"
 * to future work). The RPU with 1, 2 and 4 hardware batch contexts:
 * throughput rises as stall slots fill, per-batch latency degrades
 * gracefully.
 */
Render
extMultibatch(Plan &p, const RunScale &scale)
{
    const TimingOptions opt = timingOptions(scale);
    // Per service: 1, 2 and 4 contexts. One context is the default
    // RPU, so those cells are the ones Figs. 19-21 run.
    std::vector<Handle<Cell>> runs;
    for (const auto &name : svc::serviceNames()) {
        for (int contexts : {1, 2, 4}) {
            auto cfg = core::makeRpuConfig();
            cfg.smtThreads = contexts;
            runs.push_back(cell(p, name, cfg, opt));
        }
    }
    return [&p, runs] {
        Table t("Extension: RPU multi-batch interleaving (1/2/4 "
                "contexts)");
        t.header({"service", "thr x1 (req/s)", "thr x2", "thr x4",
                  "lat x1 (us)", "lat x2", "lat x4"});
        const auto &names = svc::serviceNames();
        std::vector<double> gain2, gain4;
        for (size_t i = 0; i < names.size(); ++i) {
            double thr[3], lat[3];
            for (size_t c = 0; c < 3; ++c) {
                const auto &run = p[runs[3 * i + c]];
                thr[c] = run.core.throughputPerCore();
                lat[c] = run.core.meanLatencyUs();
            }
            gain2.push_back(thr[1] / thr[0]);
            gain4.push_back(thr[2] / thr[0]);
            t.row({names[i], Table::num(thr[0], 0), Table::num(thr[1], 0),
                   Table::num(thr[2], 0), Table::num(lat[0], 2),
                   Table::num(lat[1], 2), Table::num(lat[2], 2)});
        }
        t.row({"AVERAGE gain", "", Table::mult(geomean(gain2)),
               Table::mult(geomean(gain4)), "", "", ""});
        t.print();

        std::printf("future-work direction from the paper: multi-batch "
                    "scheduling fills stall cycles at a latency cost\n");
    };
}

/*
 * Extension: GPGPU on the RPU (Section VI-D): "GPUs will likely remain
 * the most energy efficient for GPGPU workloads, but we claim RPUs will
 * not be far behind." A saxpy-like SPMD kernel on all three design
 * points.
 */
Render
extGpgpu(Plan &p, const RunScale &scale)
{
    const TimingOptions opt = timingOptions(scale);
    const std::string name = "gpgpu-saxpy";
    auto cpu = cell(p, name, core::makeCpuConfig(), opt);
    auto rpu = cell(p, name, core::makeRpuConfig(), opt);
    auto gpu = cell(p, name, core::makeGpuConfig(), opt);
    auto eff = p.add(EffProbe{name, batch::Policy::PerApiArgSize,
                              simt::ReconvPolicy::MinSpPc, 32,
                              opt.requests, scale.seed});
    return [&p, cpu, rpu, gpu, eff] {
        std::printf("SPMD kernel SIMT efficiency: %.1f%%\n\n",
                    p[eff].efficiency() * 100);

        Table t("Extension: SPMD saxpy kernel across design points");
        t.header({"design point", "req/joule", "vs CPU", "latency (us)",
                  "vs CPU"});
        const TimingRun &c = p[cpu];
        auto row = [&](const char *label, const TimingRun &r) {
            t.row({label, Table::num(r.reqPerJoule(), 0),
                   Table::mult(r.reqPerJoule() / c.reqPerJoule()),
                   Table::num(r.core.meanLatencyUs(), 2),
                   Table::mult(r.core.meanLatencyUs() /
                               c.core.meanLatencyUs())});
        };
        row("CPU", c);
        row("RPU", p[rpu]);
        row("GPU-like", p[gpu]);
        t.print();

        std::printf("paper VI-D: on SPMD code the RPU should close most "
                    "of the CPU-GPU efficiency gap while keeping OoO "
                    "latency\n");
    };
}

struct Figure
{
    const char *name;
    Render (*declare)(Plan &, const RunScale &);
};

/** Every figure, in the order a full run prints them. */
const Figure kFigures[] = {
    {"fig04_naive_efficiency", fig04},
    {"fig05_bw_scaling", fig05},
    {"fig10_energy_breakdown", fig10},
    {"fig11_batching_policies", fig11},
    {"fig14_l1_traffic", fig14},
    {"fig15_l1_mpki", fig15},
    {"fig19_energy_efficiency", fig19},
    {"fig20_service_latency", fig20},
    {"fig21_latency_metrics", fig21},
    {"fig22_end_to_end", fig22},
    {"tab04_configs", tab04},
    {"tab05_area_power", tab05},
    {"sens_subbatch", sensSubbatch},
    {"sens_atomics_l3", sensAtomicsL3},
    {"sens_allocator", sensAllocator},
    {"sens_majority_voting", sensMajorityVoting},
    {"gpu_comparison", gpuComparison},
    {"ext_tuner", extTuner},
    {"ext_multibatch", extMultibatch},
    {"ext_gpgpu", extGpgpu},
};

/**
 * Mark the figures named in a comma-separated list. Prints why and
 * returns false on an unknown name.
 */
bool
selectFigures(const std::string &list, std::vector<bool> *selected)
{
    size_t start = 0;
    while (start <= list.size()) {
        size_t end = std::min(list.find(',', start), list.size());
        const std::string want = list.substr(start, end - start);
        auto it = std::find_if(std::begin(kFigures), std::end(kFigures),
                               [&](const Figure &f) { return want == f.name; });
        if (it == std::end(kFigures)) {
            std::fprintf(stderr, "--only: unknown figure '%s'; figures are:",
                         want.c_str());
            for (const auto &f : kFigures)
                std::fprintf(stderr, " %s", f.name);
            std::fprintf(stderr, "\n");
            return false;
        }
        (*selected)[static_cast<size_t>(it - std::begin(kFigures))] = true;
        start = end + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = std::chrono::steady_clock::now();
    const size_t n_figs = std::size(kFigures);
    std::vector<bool> selected(n_figs, argc == 1);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--only") != 0 || i + 1 == argc) {
            std::fprintf(stderr,
                         "unexpected argument '%s'\n"
                         "usage: simr_reproduce [--only <fig>[,<fig>...]]\n",
                         argv[i]);
            return 2;
        }
        if (!selectFigures(argv[++i], &selected))
            return 2;
    }

    const RunScale scale = RunScale::fromEnv();
    Plan plan;
    std::vector<Render> renders;
    for (size_t i = 0; i < n_figs; ++i)
        if (selected[i])
            renders.push_back(kFigures[i].declare(plan, scale));
    plan.run();
    for (const auto &render : renders)
        render();
    std::fflush(stdout);

    const double total = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    const std::string json = "{\"bench\": \"e2e\", \"figures\": " +
        std::to_string(renders.size()) + ", \"requests\": " +
        std::to_string(scale.requests) + ", \"timing_requests\": " +
        std::to_string(scale.timingRequests) + ", \"seed\": " +
        std::to_string(scale.seed) + ", " + plan.ledger() +
        ", \"total_wall_s\": " + Table::num(total, 3) + "}";
    std::fprintf(stderr, "BENCH_e2e.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_e2e.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return 0;
}
