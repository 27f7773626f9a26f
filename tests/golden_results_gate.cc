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
 *    through runCells at 64 timing requests: cycles, batch ops, scalar
 *    instructions, requests, total energy, requests per joule, p50/p99
 *    request latency and an FNV-1a hash of the counter map;
 *  - measureEfficiency SimtStats for three batching policies x two
 *    reconvergence schemes on memc, post and search-leaf;
 *  - one Fig. 22 runUserScenario point and one small runCluster cell.
 *
 * Integers are printed in decimal and doubles with 17 significant
 * digits, so the comparison is exact. On a mismatch the gate prints
 * every differing, missing and unexpected record and exits 1.
 *
 * Usage:
 *   golden_results_gate <golden-file>           check (exit 0 = match)
 *   golden_results_gate <golden-file> --regen   rewrite the file
 *
 * A regeneration changes what the simulator is pinned to: it belongs
 * in a commit that explains the model change behind it.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "simr/runner.h"
#include "sys/cluster.h"
#include "sys/uqsim.h"

using namespace simr;

namespace
{

/** Ordered key -> value records; the golden file's line order. */
class Records
{
  public:
    void
    u64(const std::string &key, uint64_t v)
    {
        add(key, std::to_string(v));
    }

    void
    f64(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(key, buf);
    }

    void
    hex(const std::string &key, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
        add(key, buf);
    }

    const std::vector<std::pair<std::string, std::string>> &
    all() const
    {
        return rows_;
    }

  private:
    void
    add(const std::string &key, std::string v)
    {
        rows_.emplace_back(key, std::move(v));
    }

    std::vector<std::pair<std::string, std::string>> rows_;
};

/** FNV-1a over a counter map's names and values. */
uint64_t
counterHash(const CounterSet &c)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto byte = [&h](uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ULL;
    };
    for (const auto &[name, count] : c.all()) {
        for (char ch : name)
            byte(static_cast<uint8_t>(ch));
        byte(0);
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(count >> (8 * i)));
    }
    return h;
}

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
    for (size_t i = 0; i < runs.size(); ++i) {
        const TimingRun &r = runs[i];
        const std::string k =
            "chip/" + cells[i].service + "/" + cells[i].cfg.name + "/";
        out.u64(k + "cycles", r.core.cycles);
        out.u64(k + "batch_ops", r.core.batchOps);
        out.u64(k + "scalar_insts", r.core.scalarInsts);
        out.u64(k + "requests", r.core.requests);
        out.f64(k + "energy_j", r.energy.total());
        out.f64(k + "req_per_j", r.reqPerJoule());
        out.f64(k + "p50_cycles", r.core.reqLatency.percentile(0.50));
        out.f64(k + "p99_cycles", r.core.reqLatency.percentile(0.99));
        out.hex(k + "counters_fnv", counterHash(r.core.counters));
    }
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
        for (const auto &[policy, pname] : policies) {
            for (const auto &[reconv, rname] : reconvs) {
                const simt::SimtStats s =
                    measureEfficiency(*svc, policy, reconv, 32, 128, 42)
                        .stats;
                const std::string k = std::string("simt/") + name + "/" +
                    pname + "/" + rname + "/";
                out.u64(k + "batch_ops", s.batchOps);
                out.u64(k + "scalar_ops", s.scalarOps);
                out.u64(k + "masked_slots", s.maskedSlots);
                out.u64(k + "diverge_events", s.divergeEvents);
                out.u64(k + "reconv_merges", s.reconvMerges);
                out.u64(k + "path_switches", s.pathSwitches);
                out.u64(k + "spin_escapes", s.spinEscapes);
                out.u64(k + "hint_violations", s.hintViolations);
                out.u64(k + "batches", s.batches);
                out.u64(k + "width", static_cast<uint64_t>(s.width));
            }
        }
    }
}

void
sysRecords(Records &out, const std::string &prefix, const sys::SysResult &r)
{
    out.f64(prefix + "offered_qps", r.offeredQps);
    out.f64(prefix + "achieved_qps", r.achievedQps);
    out.u64(prefix + "e2e_count", r.e2eUs.count());
    out.f64(prefix + "e2e_mean_us", r.meanUs());
    out.f64(prefix + "e2e_p50_us", r.e2eUs.percentile(0.50));
    out.f64(prefix + "e2e_p99_us", r.p99Us());
    out.f64(prefix + "e2e_max_us", r.e2eUs.max());
    for (const auto &t : r.tiers) {
        const std::string k = prefix + t.name + "/";
        out.u64(k + "wait_count", t.waitUs.count());
        out.f64(k + "wait_sum_us", t.waitUs.sum());
        out.f64(k + "wait_max_us", t.waitUs.max());
        out.u64(k + "service_count", t.serviceUs.count());
        out.f64(k + "service_sum_us", t.serviceUs.sum());
        out.f64(k + "service_max_us", t.serviceUs.max());
    }
}

void
systemRecords(Records &out)
{
    sys::SysConfig point;
    point.qps = 50000;
    point.rpu = true;
    point.batchSplit = true;
    sysRecords(out, "fig22/rpu_split/50kqps/",
               sys::runUserScenario(point));

    sys::ClusterConfig cell;
    cell.base.rpu = true;
    cell.users = 2000;
    cell.requests = 20000;
    cell.qps = 100000;
    cell.shards = 4;
    cell.threads = 2;
    const sys::ClusterResult c = sys::runCluster(cell);
    sysRecords(out, "cluster/small/", c.sys);
    out.u64("cluster/small/servers", c.servers);
    out.u64("cluster/small/batches", c.batches);
    out.u64("cluster/small/memc_misses", c.memcMisses);
    out.u64("cluster/small/split_orphans", c.splitOrphans);
}

std::string
render(const Records &recs)
{
    std::string s =
        "# Golden results: tests/golden_results_gate.cc, "
        "--regen rewrites this file.\n";
    for (const auto &[k, v] : recs.all())
        s += k + " " + v + "\n";
    return s;
}

bool
readGolden(const std::string &path,
           std::vector<std::pair<std::string, std::string>> *rows)
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
        rows->emplace_back(line.substr(0, sp), line.substr(sp + 1));
    }
    return true;
}

/** Print a readable diff; returns the number of differing records. */
int
compare(const std::vector<std::pair<std::string, std::string>> &want,
        const Records &got)
{
    std::map<std::string, std::string> have(got.all().begin(),
                                            got.all().end());
    int bad = 0;
    for (const auto &[k, v] : want) {
        auto it = have.find(k);
        if (it == have.end()) {
            std::printf("  missing   %s (golden %s)\n", k.c_str(),
                        v.c_str());
            ++bad;
            continue;
        }
        if (it->second != v) {
            std::printf("  differs   %s: golden %s, got %s\n", k.c_str(),
                        v.c_str(), it->second.c_str());
            ++bad;
        }
        have.erase(it);
    }
    for (const auto &[k, v] : got.all()) {
        if (have.count(k) != 0) {
            std::printf("  unexpected %s %s\n", k.c_str(), v.c_str());
            ++bad;
        }
    }
    return bad;
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
        out << render(recs);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 2;
        }
        std::printf("wrote %zu records to %s\n", recs.all().size(),
                    path.c_str());
        return 0;
    }

    std::vector<std::pair<std::string, std::string>> want;
    if (!readGolden(path, &want)) {
        std::fprintf(stderr, "cannot read %s (run with --regen)\n",
                     path.c_str());
        return 2;
    }
    const int bad = compare(want, recs);
    if (bad != 0) {
        std::printf("golden_results_gate: FAIL, %d of %zu records differ "
                    "from %s\n", bad, want.size(), path.c_str());
        return 1;
    }
    std::printf("golden_results_gate: OK, %zu records match %s\n",
                want.size(), path.c_str());
    return 0;
}
