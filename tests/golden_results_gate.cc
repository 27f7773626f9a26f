/**
 * @file
 * Golden results gate: pins the simulator's numbers themselves, not
 * only the agreement between two of its modes.
 *
 * The gate recomputes a small, fixed set of results and compares them,
 * value for value, against the text file named on the command line
 * (tests/golden/results.txt):
 *
 *  - every service under the cpu, smt8, rpu and gpu configurations
 *    through runCells at 64 timing requests;
 *  - measureEfficiency SimtStats for three batching policies x two
 *    reconvergence schemes on memc, post and search-leaf;
 *  - two Fig. 22 runUserScenario points (RPU with and without batch
 *    splitting) and one small runCluster cell, each with the journeys
 *    a Sampled recorder keeps.
 *
 * Each result renders through simr/records.h, the same definition of
 * identity every determinism gate uses, so the comparison is exact. On
 * a mismatch the gate prints every differing, missing and unexpected
 * record and exits 1.
 *
 * Usage:
 *   golden_results_gate <golden-file>           check (exit 0 = match)
 *   golden_results_gate <golden-file> --regen   rewrite the file
 *
 * A regeneration changes what the simulator is pinned to: it belongs
 * in a commit that explains the model change behind it.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/journey.h"
#include "obs/metrics.h"
#include "simr/records.h"
#include "simr/runner.h"
#include "sys/cluster.h"
#include "sys/uqsim.h"

using namespace simr;

namespace
{

void
chipRecords(Records &out)
{
    const core::CoreConfig cfgs[] = {
        core::makeCpuConfig(), core::makeSmt8Config(),
        core::makeRpuConfig(), core::makeGpuConfig()};
    TimingOptions opt;
    opt.requests = 64;
    std::vector<Cell> cells;
    for (const auto &cfg : cfgs)
        for (const auto &name : svc::serviceNames())
            cells.push_back({name, cfg, opt});
    const std::vector<TimingRun> runs = runCells(cells);
    for (size_t i = 0; i < runs.size(); ++i)
        record(out, "chip/" + cells[i].service + "/" + cells[i].cfg.name +
                        "/",
               runs[i]);
}

void
simtRecords(Records &out)
{
    const std::pair<batch::Policy, const char *> policies[] = {
        {batch::Policy::Naive, "naive"},
        {batch::Policy::PerApi, "per_api"},
        {batch::Policy::PerApiArgSize, "per_api_argsize"}};
    const std::pair<simt::ReconvPolicy, const char *> reconvs[] = {
        {simt::ReconvPolicy::StackIpdom, "stack_ipdom"},
        {simt::ReconvPolicy::MinSpPc, "minsp_pc"}};
    for (const char *name : {"memc", "post", "search-leaf"}) {
        auto svc = svc::buildService(name);
        for (const auto &[policy, pname] : policies)
            for (const auto &[reconv, rname] : reconvs)
                record(out,
                       std::string("simt/") + name + "/" + pname + "/" +
                           rname + "/",
                       measureEfficiency(*svc, policy, reconv, 32, 128, 42)
                           .stats);
    }
}

/** One system run with a Sampled journey recorder in scope: its result
 *  and its sampled journeys, pinned under `prefix`. */
template <class Run>
void
recordWithJourneys(Records &out, const std::string &prefix, Run run)
{
    obs::Registry reg;
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 32);
    obs::Scope scope(&reg, nullptr, &rec);
    record(out, prefix, run());
    record(out, prefix + "journeys/", rec.snapshot());
}

void
systemRecords(Records &out)
{
    sys::SysConfig point;
    point.qps = 50000;
    point.rpu = true;
    point.batchSplit = true;
    recordWithJourneys(out, "fig22/rpu_split/50kqps/",
                       [&] { return sys::runUserScenario(point); });

    // Unsplit: hits in mixed batches stall at the reconvergence point.
    sys::SysConfig nosplit = point;
    nosplit.batchSplit = false;
    recordWithJourneys(out, "fig22/rpu_nosplit/50kqps/",
                       [&] { return sys::runUserScenario(nosplit); });

    sys::ClusterConfig cell;
    cell.base.rpu = true;
    cell.users = 2000;
    cell.requests = 20000;
    cell.qps = 100000;
    cell.shards = 4;
    cell.threads = 2;
    recordWithJourneys(out, "cluster/small/",
                       [&] { return sys::runCluster(cell); });
}

bool
readGolden(const std::string &path, Records *recs)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        recs->text(line.substr(0, sp), line.substr(sp + 1));
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3 ||
        (argc == 3 && std::strcmp(argv[2], "--regen") != 0)) {
        std::fprintf(stderr,
                     "usage: %s <golden-file> [--regen]\n", argv[0]);
        return 2;
    }
    const std::string path = argv[1];
    const bool regen = argc == 3;

    Records recs;
    chipRecords(recs);
    simtRecords(recs);
    systemRecords(recs);

    if (regen) {
        std::ofstream out(path);
        out << "# Golden results: tests/golden_results_gate.cc, "
               "--regen rewrites this file.\n";
        for (const auto &[k, v] : recs.all())
            out << k << ' ' << v << '\n';
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 2;
        }
        std::printf("wrote %zu records to %s\n", recs.all().size(),
                    path.c_str());
        return 0;
    }

    Records want;
    if (!readGolden(path, &want)) {
        std::fprintf(stderr, "cannot read %s (run with --regen)\n",
                     path.c_str());
        return 2;
    }
    const size_t bad = printDiff(stdout, "golden_results_gate",
                                 compare(want, recs), SIZE_MAX);
    if (bad != 0) {
        std::printf("golden_results_gate: FAIL, %zu of %zu records differ "
                    "from %s\n", bad, want.all().size(), path.c_str());
        return 1;
    }
    std::printf("golden_results_gate: OK, %zu records match %s\n",
                want.all().size(), path.c_str());
    return 0;
}
