/**
 * @file
 * simr_cli: run any experiment from the command line. Without
 * arguments it prints every subcommand's syntax (kSyntax below).
 *
 * Exit codes: 0 success, 1 no or unknown subcommand, 2 unknown service,
 * missing or stray argument, unknown flag or bad flag value, 3 analysis
 * findings / profiler inconsistency, 4 I/O failure.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cache.h"
#include "analysis/crosscheck.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/anatomy.h"
#include "obs/divergence.h"
#include "obs/journey.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "simr/runner.h"
#include "simr/tuner.h"
#include "sys/cluster.h"
#include "sys/uqsim.h"

using namespace simr;

namespace
{

/** Fetch "--name value" from argv; returns fallback when absent. */
std::string
flag(int argc, char **argv, const char *name, const std::string &fallback)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return fallback;
}

bool
has(int argc, char **argv, const char *name)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

/**
 * Every subcommand's syntax, for the usage text and for checkSyntax. A
 * bracketed word is optional; a flag followed by a word that is not a
 * flag takes a value; a first word that is not a flag is the target.
 */
const std::pair<const char *, const char *> kSyntax[] = {
    {"list", ""},
    {"analyze", "<service>|--all [--json] [--dataflow] [--crosscheck]"},
    {"efficiency", "<service> [--policy naive|api|arg] [--reconv stack|minsp] "
                   "[--batch N] [--requests N] [--metrics FILE]"},
    {"timing", "<service> --config cpu|smt8|rpu|gpu [--requests N] "
               "[--alloc glibc|simr] [--batch N] [--metrics FILE]"},
    {"tune", "<service>"},
    {"sweep", "[--config cpu|smt8|rpu|gpu] [--requests N] [--threads N] "
              "[--metrics FILE]"},
    {"cluster", "[--qps N] [--rpu] [--nosplit] [--servers N] [--users N] "
                "[--requests N] [--shards N] [--threads N] [--metrics FILE]"},
    {"stats", "[service] [--json] [--config cpu|smt8|rpu|gpu] [--requests N] "
              "[--threads N] [--metrics FILE]"},
    {"trace", "<service>|social_network [--out FILE] [--config rpu|gpu] "
              "[--requests N] [--top N] [--qps N] [--metrics FILE]"},
    {"anatomy", "social_network [--json] [--qps N] [--requests N] "
                "[--mode off|sampled|all] [--servers N] [--shards N] "
                "[--metrics FILE]"},
    {"hotspots", "<service>|--all [--top N] [--requests N] [--batch N] "
                 "[--metrics FILE]"},
};

int
usage()
{
    std::fprintf(stderr, "usage:\n");
    for (const auto &[cmd, syntax] : kSyntax)
        std::fprintf(stderr, "  simr_cli %s%s%s\n", cmd, *syntax ? " " : "",
                     syntax);
    std::fprintf(stderr,
        "cluster defaults to the Fig. 22 single graph (one server per tier\n"
        "and one client); --servers N >= 5 scales the 4:4:2:2:1 tier mix.\n"
        "anatomy --servers/--shards drills into a cluster-scale PDES run.\n");
    return 1;
}

bool
isFlag(const std::string &w)
{
    return w.rfind("--", 0) == 0;
}

/**
 * Reject any argument `syntax` does not allow: an unknown flag, a
 * valued flag without its value, a stray positional argument. Prints
 * why.
 */
bool
checkSyntax(int argc, char **argv, const std::string &syntax)
{
    std::istringstream in(syntax);
    std::vector<std::string> words;
    for (std::string w; in >> w;) {
        std::erase(w, '[');
        std::erase(w, ']');
        words.push_back(w);
    }
    auto flags = words.begin();
    int i = 2;
    if (!words.empty() && !isFlag(words[0])) {
        ++flags;
        if (syntax[0] != '[' && argc < 3) {
            std::fprintf(stderr, "%s: expected %s\n", argv[1],
                         words[0].c_str());
            return false;
        }
        if (syntax[0] != '[' || (argc > 2 && argv[2][0] != '-'))
            ++i;
    }
    for (; i < argc; ++i) {
        const std::string a = argv[i];
        auto it = std::find(flags, words.end(), a);
        bool known = isFlag(a) && it != words.end();
        // A flag followed by a non-flag word consumes the next argument.
        if (known && (it + 1 == words.end() || isFlag(*(it + 1)) ||
                      ++i < argc))
            continue;
        std::fprintf(stderr, "%s: %s '%s' (simr_cli without arguments "
                     "prints usage)\n", argv[1],
                     known ? "no value after" : isFlag(a) ? "unknown flag" :
                     "unexpected argument", a.c_str());
        return false;
    }
    return true;
}

/**
 * Strict numeric flag: keeps `*out` when the flag is absent, else
 * requires the whole value to parse as a finite number in [lo, hi]
 * (and to be whole when T is integral). Prints why and returns false
 * on anything else.
 */
template <typename T>
bool
numFlag(int argc, char **argv, const char *name, double lo, double hi, T *out)
{
    constexpr bool integral = std::is_integral_v<T>;
    if (!has(argc, argv, name))
        return true;
    std::string v = flag(argc, argv, name, "");
    char *end = nullptr;
    double x = v.empty() ? 0 : std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x) || x < lo ||
        x > hi || (integral && x != std::floor(x))) {
        std::fprintf(stderr, "%s: expected %s in [%g, %g], got '%s'\n",
                     name, integral ? "an integer" : "a number", lo, hi,
                     v.c_str());
        return false;
    }
    *out = static_cast<T>(x);
    return true;
}

/**
 * Strict choice flag: keeps `*out` when the flag is absent, else
 * requires the value to be one of `choices`. Prints the choices and
 * returns false on anything else.
 */
bool
choiceFlag(int argc, char **argv, const char *name,
           std::initializer_list<const char *> choices, std::string *out)
{
    if (!has(argc, argv, name))
        return true;
    std::string v = flag(argc, argv, name, "");
    std::string list;
    for (const char *c : choices) {
        if (v == c) {
            *out = v;
            return true;
        }
        if (!list.empty())
            list += '|';
        list += c;
    }
    std::fprintf(stderr, "%s: expected one of %s, got '%s'\n", name,
                 list.c_str(), v.c_str());
    return false;
}

/** --config cpu|smt8|rpu|gpu (default rpu); false on any other name. */
bool
configFlag(int argc, char **argv, core::CoreConfig *out)
{
    std::string name = "rpu";
    if (!choiceFlag(argc, argv, "--config", {"cpu", "smt8", "rpu", "gpu"},
                    &name))
        return false;
    *out = name == "cpu" ? core::makeCpuConfig() :
        name == "smt8" ? core::makeSmt8Config() :
        name == "gpu" ? core::makeGpuConfig() : core::makeRpuConfig();
    return true;
}

/** Upper bound of every chip-level --requests flag. */
constexpr double kMaxRequests = 1e8;

/** Build a registered service; prints why when the name is unknown. */
std::unique_ptr<svc::Service>
findService(const std::string &name)
{
    auto svc = svc::buildService(name);
    if (!svc)
        std::fprintf(stderr, "unknown service '%s' (simr_cli list)\n",
                     name.c_str());
    return svc;
}

/**
 * Honour --metrics FILE: dump the scoped registry's text exposition.
 * Returns false on I/O failure (reported to stderr).
 */
bool
dumpMetricsIfAsked(int argc, char **argv)
{
    std::string path = flag(argc, argv, "--metrics", "");
    if (path.empty())
        return true;
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write metrics file '%s'\n",
                     path.c_str());
        return false;
    }
    f << obs::Scope::registry()->textPage();
    return static_cast<bool>(f);
}

int
cmdList()
{
    Table t("available services");
    t.header({"name", "group", "APIs", "max arg", "tuned batch"});
    for (const auto &n : svc::serviceNames()) {
        auto s = svc::buildService(n);
        t.row({n, s->traits().group,
               std::to_string(s->traits().numApis),
               std::to_string(s->traits().maxArgLen),
               std::to_string(s->traits().tunedBatch)});
    }
    t.print();
    std::printf("plus the extension workload: gpgpu-saxpy\n");
    return 0;
}

/**
 * Replay `svc` through a stack-IPDOM lockstep engine wrapped in the
 * analyzer's CheckedStream and report whether every observed
 * reconvergence landed on the statically predicted PC.
 */
bool
runCrossCheck(const svc::Service &svc, const analysis::Report &report,
              int requests)
{
    auto reqs = genRequests(svc, requests, 42);
    batch::BatchingServer server(batch::Policy::PerApiArgSize,
                                 trace::kMaxBatch);
    auto batches = server.formBatches(reqs);
    simt::LockstepEngine engine(
        svc.program(), simt::ReconvPolicy::StackIpdom, trace::kMaxBatch,
        makeBatchProvider(svc, std::move(batches)));
    analysis::CheckedStream checked(engine, report);
    trace::DynOp op;
    while (checked.next(op)) {
        // Drain; the decorator verifies as ops stream through.
    }
    const auto &cs = checked.stats();
    std::printf("  crosscheck: %llu ops, %llu divergences, "
                "%llu merges verified, %llu unobserved\n",
                static_cast<unsigned long long>(cs.ops),
                static_cast<unsigned long long>(cs.divergences),
                static_cast<unsigned long long>(cs.mergesChecked),
                static_cast<unsigned long long>(cs.unobserved));
    for (const auto &f : cs.failures)
        std::fprintf(stderr, "  crosscheck FAIL: %s\n", f.c_str());
    return cs.ok();
}

/** Format a PC the way the divergence reports do. */
std::string
hexPc(isa::Pc pc)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

/**
 * Render one program's static dataflow verdicts: the per-branch
 * uniformity table and per-memory-op coalescibility table. Only used
 * for single-service `analyze --dataflow`; --all sticks to the
 * cross-service summary.
 */
void
printDataflowDetail(const isa::Program &prog, const analysis::Report &r)
{
    auto fname = [&](int f) {
        return f >= 0 ? prog.func(f).name : std::string("?");
    };
    Table bt("branch uniformity: " + r.program);
    bt.header({"pc", "function", "uniformity", "id-dep", "frame-dep"});
    for (const auto &b : r.dataflow.branches)
        bt.row({hexPc(b.pc), fname(b.func),
                analysis::uniformityName(b.uniformity),
                b.mayId ? "may" : "no", b.mayFrame ? "may" : "no"});
    bt.print();
    Table mt("memory coalescibility: " + r.program);
    mt.header({"pc", "function", "op", "class", "id-dep", "frame-dep"});
    for (const auto &m : r.dataflow.mems)
        mt.row({hexPc(m.pc), fname(m.func), isa::opName(m.op),
                analysis::memClassName(m.cls),
                m.mayId ? "may" : "no", m.mayFrame ? "may" : "no"});
    mt.print();
}

int
cmdAnalyze(const std::string &target, int argc, char **argv)
{
    bool json = has(argc, argv, "--json");
    bool dataflow = has(argc, argv, "--dataflow");
    bool crosscheck = has(argc, argv, "--crosscheck");

    std::vector<std::string> names;
    if (target == "--all") {
        names = svc::serviceNames();
    } else {
        names.push_back(target);
    }

    Table dft("static dataflow: uniformity, coalescibility");
    dft.header({"service", "branches", "uniform", "per-batch",
                "may-div", "mems", "coalesced", "affine", "scattered"});

    int total_errors = 0;
    int total_warnings = 0;
    bool cross_ok = true;
    for (const auto &n : names) {
        auto svc = findService(n);
        if (!svc)
            return 2;
        auto report = analysis::analyze(svc->program());
        if (dataflow && report.dataflow.ran) {
            const auto &df = report.dataflow;
            using analysis::MemClass;
            using analysis::Uniformity;
            dft.row({n, std::to_string(df.branches.size()),
                     std::to_string(
                         df.countUniformity(Uniformity::UniformAlways)),
                     std::to_string(df.countUniformity(
                         Uniformity::UniformPerBatch)),
                     std::to_string(
                         df.countUniformity(Uniformity::MayDiverge)),
                     std::to_string(df.mems.size()),
                     std::to_string(df.countMemClass(MemClass::Uniform)),
                     std::to_string(
                         df.countMemClass(MemClass::AffineStrided)),
                     std::to_string(
                         df.countMemClass(MemClass::Scattered))});
        }
        if (json) {
            std::printf("%s", report.json().c_str());
        } else {
            std::printf("%s: %d function(s), %d block(s), %zu "
                        "instruction(s), %zu branch(es) verified, "
                        "%d error(s), %d warning(s)\n",
                        report.program.c_str(), report.numFunctions,
                        report.numBlocks, report.numInsts,
                        report.branches.size(), report.errors(),
                        report.warnings());
            for (const auto &d : report.diags)
                std::printf("  %s\n", d.str().c_str());
        }
        total_errors += report.errors();
        total_warnings += report.warnings();
        if (dataflow && !json && names.size() == 1 &&
            report.dataflow.ran)
            printDataflowDetail(svc->program(), report);
        if (crosscheck && report.ok())
            cross_ok = runCrossCheck(*svc, report, 2400) && cross_ok;
    }
    if (dataflow && !json)
        dft.print();
    if (!json) {
        std::printf("analyzed %zu program(s): %d error(s), "
                    "%d warning(s)%s\n", names.size(), total_errors,
                    total_warnings,
                    crosscheck ? (cross_ok ? ", crosscheck clean"
                                           : ", CROSSCHECK FAILED") : "");
    }
    return total_errors > 0 || !cross_ok ? 3 : 0;
}

int
cmdEfficiency(const std::string &name, int argc, char **argv)
{
    std::string pol = "arg";
    std::string rc = "minsp";
    int width = 32;
    int n = 2400;
    if (!choiceFlag(argc, argv, "--policy", {"naive", "api", "arg"}, &pol) ||
        !choiceFlag(argc, argv, "--reconv", {"stack", "minsp"}, &rc) ||
        !numFlag(argc, argv, "--batch", 1, trace::kMaxBatch, &width) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &n))
        return 2;
    auto svc = findService(name);
    if (!svc)
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    batch::Policy policy = pol == "naive" ? batch::Policy::Naive :
        pol == "api" ? batch::Policy::PerApi :
        batch::Policy::PerApiArgSize;
    auto reconv = rc == "stack" ? simt::ReconvPolicy::StackIpdom
                                : simt::ReconvPolicy::MinSpPc;

    auto r = measureEfficiency(*svc, policy, reconv, width, n, 42);
    Table t("SIMT efficiency: " + name);
    t.header({"metric", "value"});
    t.row({"policy", batch::policyName(policy)});
    t.row({"reconvergence", rc == "stack" ? "stack-IPDOM" : "MinSP-PC"});
    t.row({"batch width", std::to_string(width)});
    t.row({"requests", std::to_string(n)});
    t.row({"SIMT efficiency", Table::pct(r.efficiency())});
    t.row({"batches", std::to_string(r.stats.batches)});
    t.row({"divergence events", std::to_string(r.stats.divergeEvents)});
    t.row({"path switches", std::to_string(r.stats.pathSwitches)});
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

int
cmdTiming(const std::string &name, int argc, char **argv)
{
    core::CoreConfig cfg;
    TimingOptions opt;
    std::string alloc = "simr";
    if (!configFlag(argc, argv, &cfg) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &opt.requests) ||
        !choiceFlag(argc, argv, "--alloc", {"glibc", "simr"}, &alloc) ||
        !numFlag(argc, argv, "--batch", 0, trace::kMaxBatch,
                 &opt.batchOverride))
        return 2;
    opt.alloc = alloc == "glibc" ? mem::AllocPolicy::GlibcLike
                                 : mem::AllocPolicy::SimrAware;
    auto svc = findService(name);
    if (!svc)
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    auto run = runTiming(*svc, cfg, opt);
    Table t("timing: " + name + " on " + cfg.name);
    t.header({"metric", "value"});
    t.row({"requests", std::to_string(run.core.requests)});
    t.row({"cycles", std::to_string(run.core.cycles)});
    t.row({"IPC (scalar)", Table::num(run.core.ipc(), 2)});
    t.row({"mean latency (us)",
           Table::num(run.core.meanLatencyUs(), 3)});
    t.row({"p99 latency (us)",
           Table::num(run.core.reqLatency.percentile(0.99) /
                      (run.core.freqGhz * 1e3), 3)});
    t.row({"L1 accesses", std::to_string(run.core.l1Stats.accesses)});
    t.row({"L1 miss rate", Table::pct(run.core.l1Stats.missRate())});
    t.row({"BP accuracy", Table::pct(run.core.bpStats.accuracy())});
    t.row({"requests/joule", Table::num(run.reqPerJoule(), 0)});
    t.row({"frontend energy share",
           Table::pct(run.energy.frontendShare())});
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

int
cmdTune(const std::string &name)
{
    auto svc = findService(name);
    if (!svc)
        return 2;
    auto r = tune::tuneBatchSize(*svc);
    Table t("batch tuning: " + name);
    t.header({"batch", "MPKI", "SIMT eff", "acceptable"});
    for (const auto &p : r.points)
        t.row({std::to_string(p.batchSize), Table::num(p.mpki, 1),
               Table::pct(p.efficiency), p.acceptable ? "yes" : "no"});
    t.print();
    std::printf("chosen batch size: %d\n", r.chosenBatch);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    core::CoreConfig cfg;
    TimingOptions opt;
    int threads = 0;
    if (!configFlag(argc, argv, &cfg) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &opt.requests) ||
        !numFlag(argc, argv, "--threads", 0, 4096, &threads))
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    std::vector<Cell> cells;
    for (const auto &n : svc::serviceNames())
        cells.push_back({n, cfg, opt});
    auto runs = runCells(cells, threads);

    Table t("sweep: all services on " + cfg.name + " (" +
            std::to_string(threads > 0 ? threads : defaultThreads()) +
            " harness threads)");
    t.header({"service", "cycles", "IPC", "mean lat (us)",
              "L1 miss", "req/J"});
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto &run = runs[i];
        t.row({cells[i].service, std::to_string(run.core.cycles),
               Table::num(run.core.ipc(), 2),
               Table::num(run.core.meanLatencyUs(), 3),
               Table::pct(run.core.l1Stats.missRate()),
               Table::num(run.reqPerJoule(), 0)});
    }
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/** Scale the default 13-server cluster topology to ~`servers` nodes,
 *  preserving the 4:4:2:2:1 tier ratio (every tier keeps >= 1). */
sys::ClusterConfig
clusterTopology(int servers)
{
    sys::ClusterConfig cc;
    double f = static_cast<double>(servers) / 13.0;
    auto scaled = [f](int per13) {
        return std::max(1, static_cast<int>(std::lround(per13 * f)));
    };
    cc.webServers = scaled(4);
    cc.userServers = scaled(4);
    cc.mcrouterServers = scaled(2);
    cc.memcServers = scaled(2);
    cc.storageServers = scaled(1);
    return cc;
}

/**
 * cluster: the social-network User scenario on the PDES cluster
 * engine. With no flags it is Fig. 22's single graph: one server per
 * tier and one Poisson client (what runUserScenario simulates);
 * --servers scales the 4:4:2:2:1 tier mix, --users spreads the load
 * over independent clients. Bad flag values exit 2.
 */
int
cmdCluster(int argc, char **argv)
{
    obs::Registry reg;
    obs::Scope scope(&reg);

    sys::SysConfig graph;
    graph.qps = 10000;
    sys::ClusterConfig cc = sys::singleGraphCluster(graph);
    int servers = 0;
    if (!numFlag(argc, argv, "--qps", 0.001, 1e12, &cc.qps) ||
        !numFlag(argc, argv, "--servers", 5, 1e6, &servers) ||
        !numFlag(argc, argv, "--users", 1, 1e9, &cc.users) ||
        !numFlag(argc, argv, "--requests", 1, UINT32_MAX - 1.0, &cc.requests) ||
        !numFlag(argc, argv, "--shards", 0, 4096, &cc.shards) ||
        !numFlag(argc, argv, "--threads", 0, 4096, &cc.threads))
        return 2;
    if (servers > 0) {
        sys::ClusterConfig scaled = clusterTopology(servers);
        cc.webServers = scaled.webServers;
        cc.userServers = scaled.userServers;
        cc.mcrouterServers = scaled.mcrouterServers;
        cc.memcServers = scaled.memcServers;
        cc.storageServers = scaled.storageServers;
    }
    cc.base.rpu = has(argc, argv, "--rpu");
    cc.base.batchSplit = !has(argc, argv, "--nosplit");
    auto r = sys::runCluster(cc);

    Table t("cluster run");
    t.header({"metric", "value"});
    t.row({"system", cc.base.rpu
                         ? (cc.base.batchSplit ? "RPU w/ split"
                                               : "RPU w/o split")
                         : "CPU"});
    t.row({"servers", std::to_string(r.servers)});
    t.row({"users", std::to_string(cc.users)});
    t.row({"requests", std::to_string(cc.requests)});
    t.row({"batches", std::to_string(r.batches)});
    t.row({"memc misses", std::to_string(r.memcMisses)});
    t.row({"offered QPS", Table::num(r.sys.offeredQps, 0)});
    t.row({"achieved QPS", Table::num(r.sys.achievedQps, 0)});
    t.row({"mean latency (us)", Table::num(r.sys.meanUs(), 0)});
    t.row({"p99 latency (us)", Table::num(r.sys.p99Us(), 0)});
    t.row({"shards x workers",
           std::to_string(r.pdes.shards) + " x " +
               std::to_string(r.pdes.workers)});
    t.row({"lookahead windows", std::to_string(r.pdes.windows)});
    t.row({"mailbox sends", std::to_string(r.pdes.mailboxSends)});
    t.row({"mailbox spills", std::to_string(r.pdes.mailboxOverflows)});
    Table b("per-tier breakdown");
    b.header({"tier", "mean wait (us)", "mean service (us)"});
    for (const auto &tier : r.sys.tiers)
        b.row({tier.name, Table::num(tier.waitUs.mean(), 2),
               Table::num(tier.serviceUs.mean(), 2)});
    t.print();
    b.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * stats: run an experiment and print the full metric registry. With a
 * service, one timing run; without, the whole service sweep through
 * runCells (per-cell registries merged deterministically).
 */
int
cmdStats(const std::string &service, int argc, char **argv)
{
    core::CoreConfig cfg;
    TimingOptions opt;
    opt.requests = 256;
    int threads = 0;
    if (!configFlag(argc, argv, &cfg) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &opt.requests) ||
        !numFlag(argc, argv, "--threads", 0, 4096, &threads))
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    if (service.empty()) {
        std::vector<Cell> cells;
        for (const auto &n : svc::serviceNames())
            cells.push_back({n, cfg, opt});
        runCells(cells, threads);
    } else {
        auto svc = findService(service);
        if (!svc)
            return 2;
        runTiming(*svc, cfg, opt);
    }

    if (has(argc, argv, "--json"))
        std::printf("%s", reg.jsonPage().c_str());
    else
        std::printf("%s", reg.textPage().c_str());
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * Chip-level trace: run `svc` through one lockstep engine with a span
 * recorder and divergence profiler attached, batching spans included
 * (pid kChipPid). Prints the top hotspots afterwards.
 */
void
traceChipLevel(const svc::Service &svc, const std::string &name,
               obs::Tracer *tr, int width, int requests, int top_n,
               obs::BatchAnatomyRecorder *bar = nullptr)
{
    constexpr int kChipPid = 1;
    tr->processName(0, "batching server");
    tr->processName(kChipPid, "RPU core (lockstep)");
    tr->threadName(0, 0, "batch formation");
    tr->threadName(kChipPid, 1, "engine 0: " + name);

    obs::DivergenceProfiler prof(svc.program());
    prof.setStaticHints(
        analysis::gateAndProve(svc.program()).report.dataflow);
    obs::SpanRecorder spans(tr, kChipPid, 1);
    obs::MultiObserver tee({&prof, &spans});
    if (bar)
        tee.add(bar);

    auto r = measureEfficiency(svc, batch::Policy::PerApiArgSize,
                               simt::ReconvPolicy::MinSpPc, width,
                               requests, 42, &tee);
    std::printf("%s: %llu batches, SIMT efficiency %.1f%%\n",
                name.c_str(),
                static_cast<unsigned long long>(r.stats.batches),
                100.0 * r.efficiency());
    prof.report(top_n).print();
}

/**
 * trace: emit a Chrome trace-event / Perfetto timeline.
 *
 * `social_network` is the end-to-end Fig. 22 view: the User
 * scenario's single graph (per-tier queueing in simulated
 * microseconds) plus a chip-level lockstep trace of the `user`
 * logic-tier service. Any other service name gives the chip-level view
 * alone.
 */
int
cmdTrace(const std::string &target, int argc, char **argv)
{
    core::CoreConfig chip_cfg;
    int requests = 256;
    int top_n = 5;
    double qps = 10000;
    if (!configFlag(argc, argv, &chip_cfg) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &requests) ||
        !numFlag(argc, argv, "--top", 1, 1e6, &top_n) ||
        !numFlag(argc, argv, "--qps", 0.001, 1e12, &qps))
        return 2;
    std::string out = flag(argc, argv, "--out", "run.json");

    obs::Registry reg;
    obs::Tracer tracer;
    obs::Scope scope(&reg, &tracer);

    if (target == "social_network") {
        // Chip level: the logic tier the scenario batches for, with the
        // per-batch anatomy rows kept for the cross-layer flow arrows.
        auto svc = findService("user");
        if (!svc)
            return 2;
        obs::BatchAnatomyRecorder chip;
        traceChipLevel(*svc, "user", &tracer, svc->traits().tunedBatch,
                       requests, top_n, &chip);

        // Cluster level: the uqsim User scenario on the RPU system,
        // with journey capture for the sampled tail.
        sys::SysConfig cfg;
        cfg.qps = qps;
        cfg.requests = requests * 8;
        cfg.rpu = true;
        obs::JourneyRecorder jrec(obs::JourneyMode::Sampled, 64);
        sys::SysResult r;
        {
            obs::Scope jscope(&reg, &tracer, &jrec);
            r = sys::runUserScenario(cfg);
        }
        std::printf("cluster: %.0f offered qps, %.0f achieved, "
                    "p99 %.0f us\n", r.offeredQps, r.achievedQps,
                    r.p99Us());

        // Flow arrows: connect each sampled journey's user-tier visit
        // (cluster timeline, pid 2 / user tier track) to the chip-level
        // issue window of a representative lockstep batch (pid 1). The
        // chip run batches the same service, so cluster batch ids map
        // onto its batch rows round-robin.
        const auto &rows = chip.rows();
        if (!rows.empty()) {
            size_t emitted = 0;
            for (const auto &j : jrec.snapshot()) {
                if (emitted >= 32)
                    break;
                const obs::JourneyEvent *user_start = nullptr;
                for (const auto &e : j.events)
                    if (e.kind == obs::JStage::TierStart && e.tier == 1)
                        user_start = &e;
                if (!user_start)
                    continue;
                const auto &row =
                    rows[static_cast<size_t>(j.batchId) % rows.size()];
                uint64_t id = 0x1000000 + j.reqId;
                tracer.flowStart("batch link", "link", id,
                                 obs::journeyUs(user_start->tick), 2, 3);
                tracer.flowEnd("batch link", "link", id,
                               static_cast<double>(row.startOp), 1, 1);
                ++emitted;
            }
        }
    } else {
        auto svc = findService(target);
        if (!svc)
            return 2;
        int width = std::min(chip_cfg.batchWidth,
                             svc->traits().tunedBatch);
        traceChipLevel(*svc, target, &tracer, width, requests, top_n);
    }

    if (!tracer.writeFile(out)) {
        std::fprintf(stderr, "cannot write trace file '%s'\n",
                     out.c_str());
        return 4;
    }
    std::printf("wrote %zu trace events to %s (%zu dropped)\n",
                tracer.size(), out.c_str(), tracer.dropped());
    std::printf("open in https://ui.perfetto.dev (or "
                "chrome://tracing)\n");
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * anatomy: the tail-latency drill-down of the social_network scenario.
 * Runs the uqsim User scenario on the CPU and RPU systems with journey
 * capture, decomposes every sampled request's latency into buckets
 * (exactly: the buckets sum to the end-to-end latency), and prints the
 * p99-vs-median anatomy per config. The RPU config's user-tier service
 * time is further split into divergence/memory shares measured by a
 * chip-level lockstep run of the `user` service.
 */
int
cmdAnatomy(const std::string &target, int argc, char **argv)
{
    if (target != "social_network") {
        std::fprintf(stderr,
                     "anatomy knows only the social_network scenario\n");
        return 1;
    }

    bool json = has(argc, argv, "--json");
    double qps = 10000;
    int requests = 20000;
    int servers = 13;
    int shards = 0;
    std::string mode_s = "sampled";
    if (!numFlag(argc, argv, "--qps", 0.001, 1e12, &qps) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &requests) ||
        !numFlag(argc, argv, "--servers", 5, 1e6, &servers) ||
        !numFlag(argc, argv, "--shards", 0, 4096, &shards) ||
        !choiceFlag(argc, argv, "--mode", {"off", "sampled", "all"}, &mode_s))
        return 2;
    bool at_scale = has(argc, argv, "--servers") ||
        has(argc, argv, "--shards");
    obs::JourneyMode mode = mode_s == "off" ? obs::JourneyMode::Off :
        mode_s == "all" ? obs::JourneyMode::All :
        obs::JourneyMode::Sampled;

    obs::Registry reg;
    obs::Scope scope(&reg);

    // Chip-level attribution for the batched logic tier (tier 1: user).
    auto svc = findService("user");
    if (!svc)
        return 2;
    obs::BatchAnatomyRecorder chip;
    measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                      simt::ReconvPolicy::MinSpPc,
                      svc->traits().tunedBatch, 512, 42, &chip);
    obs::ChipLink link = chip.link(1);

    std::string page = "{\"scenario\":\"social_network\",\"mode\":\"" +
        std::string(obs::journeyModeName(mode)) + "\",\"configs\":{";
    struct SysRun { const char *name; bool rpu; };
    const SysRun runs[] = {{"cpu", false}, {"rpu", true}};
    for (size_t i = 0; i < 2; ++i) {
        obs::JourneyRecorder rec(mode, 512);
        sys::SysResult r;
        if (at_scale) {
            // Drill into a sharded cluster-scale run: same journey
            // event shape, so the decomposition works unchanged.
            sys::ClusterConfig cc = clusterTopology(servers);
            cc.base.rpu = runs[i].rpu;
            cc.qps = qps;
            cc.requests = static_cast<uint64_t>(requests);
            cc.shards = shards;
            obs::Scope inner(&reg, nullptr, &rec);
            r = sys::runCluster(cc).sys;
        } else {
            sys::SysConfig cfg;
            cfg.qps = qps;
            cfg.requests = requests;
            cfg.rpu = runs[i].rpu;
            obs::Scope inner(&reg, nullptr, &rec);
            r = sys::runUserScenario(cfg);
        }
        auto report = obs::buildAnatomy(
            rec.snapshot(), runs[i].rpu ? &link : nullptr);
        obs::recordJourneyMetrics(&reg, rec, report);
        if (json) {
            page += std::string("\"") + runs[i].name + "\":" +
                report.json() + (i == 0 ? "," : "");
        } else {
            std::printf("%s system: mean %.0f us, p99 %.0f us "
                        "(%.0f offered qps)\n", runs[i].name,
                        r.meanUs(), r.p99Us(), r.offeredQps);
            std::printf("%s", report.table(runs[i].name).c_str());
            if (runs[i].rpu)
                std::printf("  chip link (user tier): divergence "
                            "%.1f%%, memory %.1f%% of service\n",
                            100.0 * link.divergenceFrac,
                            100.0 * link.memoryFrac);
        }
    }
    if (json)
        std::printf("%s", (page + "}}\n").c_str());
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * hotspots: per-PC divergence attribution report, checked against the
 * engine's aggregate SimtStats (the sums must match exactly).
 */
int
cmdHotspots(const std::string &target, int argc, char **argv)
{
    int top_n = 10;
    int requests = 2400;
    int width = 32;
    if (!numFlag(argc, argv, "--top", 1, 1e6, &top_n) ||
        !numFlag(argc, argv, "--requests", 1, kMaxRequests, &requests) ||
        !numFlag(argc, argv, "--batch", 1, trace::kMaxBatch, &width))
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    std::vector<std::string> names;
    if (target == "--all")
        names = svc::serviceNames();
    else
        names.push_back(target);

    bool consistent = true;
    for (const auto &n : names) {
        auto svc = findService(n);
        if (!svc)
            return 2;
        obs::DivergenceProfiler prof(svc->program());
        prof.setStaticHints(
            analysis::gateAndProve(svc->program()).report.dataflow);
        auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::MinSpPc, width,
                                   requests, 42, &prof);
        prof.report(top_n).print();
        std::printf("%s: %llu/%llu divergence events at "
                    "statically may-diverge branches, %llu at "
                    "proven-uniform branches\n", n.c_str(),
                    static_cast<unsigned long long>(
                        prof.predictedDivergeEvents()),
                    static_cast<unsigned long long>(
                        prof.totalDivergeEvents()),
                    static_cast<unsigned long long>(
                        prof.alwaysUniformViolations()));
        bool ok = prof.totalMaskedSlots() == r.stats.maskedSlots &&
            prof.totalDivergeEvents() == r.stats.divergeEvents &&
            prof.totalReconvMerges() == r.stats.reconvMerges;
        std::printf("%s: attribution %s (masked %llu/%llu, "
                    "diverge %llu/%llu, merge %llu/%llu)\n",
                    n.c_str(), ok ? "consistent" : "INCONSISTENT",
                    static_cast<unsigned long long>(
                        prof.totalMaskedSlots()),
                    static_cast<unsigned long long>(
                        r.stats.maskedSlots),
                    static_cast<unsigned long long>(
                        prof.totalDivergeEvents()),
                    static_cast<unsigned long long>(
                        r.stats.divergeEvents),
                    static_cast<unsigned long long>(
                        prof.totalReconvMerges()),
                    static_cast<unsigned long long>(
                        r.stats.reconvMerges));
        consistent = consistent && ok;
    }
    if (!dumpMetricsIfAsked(argc, argv))
        return 4;
    return consistent ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    auto syn = std::find_if(std::begin(kSyntax), std::end(kSyntax),
                            [&](const auto &s) { return cmd == s.first; });
    if (syn == std::end(kSyntax))
        return usage();
    if (!checkSyntax(argc, argv, syn->second))
        return 2;
    if (cmd == "list")
        return cmdList();
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "cluster")
        return cmdCluster(argc, argv);
    if (cmd == "stats") {
        // The service argument is optional: "stats --json" sweeps all.
        std::string service;
        if (argc >= 3 && argv[2][0] != '-')
            service = argv[2];
        return cmdStats(service, argc, argv);
    }
    std::string service = argv[2];
    if (cmd == "analyze")
        return cmdAnalyze(service, argc, argv);
    if (cmd == "efficiency")
        return cmdEfficiency(service, argc, argv);
    if (cmd == "timing")
        return cmdTiming(service, argc, argv);
    if (cmd == "tune")
        return cmdTune(service);
    if (cmd == "trace")
        return cmdTrace(service, argc, argv);
    if (cmd == "anatomy")
        return cmdAnatomy(service, argc, argv);
    if (cmd == "hotspots")
        return cmdHotspots(service, argc, argv);
    return usage();
}
