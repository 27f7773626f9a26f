/**
 * @file
 * One benchmark pass in a fresh process:
 *
 *   simr_perfbench --workload chip_sweep|design_sweep|cluster --seed N
 *                  --threads N [--trace --span-file PATH] [--small]
 *                  [--inject-failure] [--setup-only]
 *
 * Prints one JSON line: the host time of the timed part, the output
 * checks, the simulated-statistics digest and, with --trace, the
 * per-layer metrics. run.py drives it; see README.md.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simr_perfbench: %s\n"
                 "usage: simr_perfbench --workload "
                 "chip_sweep|design_sweep|cluster --seed N --threads N\n"
                 "       [--trace --span-file PATH] [--small] "
                 "[--inject-failure] [--setup-only]\n",
                 why);
    std::exit(2);
}

uint64_t
parseUint(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
object(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? ", " : "") + quoted(k) + ": " + number(v);
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    PassSpec spec;
    bool trace = false;
    std::string spanFile;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            spec.workload = value();
        } else if (a == "--seed") {
            spec.seed = parseUint("--seed", value());
            haveSeed = true;
        } else if (a == "--threads") {
            spec.threads = static_cast<int>(parseUint("--threads", value()));
        } else if (a == "--trace") {
            trace = true;
        } else if (a == "--span-file") {
            spanFile = value();
        } else if (a == "--small") {
            spec.scale = Scale::Small;
        } else if (a == "--setup-only") {
            spec.setupOnly = true;
        } else if (a == "--inject-failure") {
            spec.injectFailure = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (spec.workload != "chip_sweep" && spec.workload != "design_sweep" &&
        spec.workload != "cluster")
        usage("--workload must be chip_sweep, design_sweep or cluster");
    if (!haveSeed)
        usage("--seed is required");
    if (spec.threads < 1 || spec.threads > 256)
        usage("--threads must be in 1..256");
    if (trace && (spanFile.empty() || spec.setupOnly))
        usage("--trace needs --span-file and excludes --setup-only");

    TimedPart timed;
    PassResult r = trace ? runTraced(spec, timed, spanFile)
                         : runPass(spec, timed);

    std::string failures = "[";
    for (const std::string &f : r.checks.failures)
        failures += (failures.size() > 1 ? ", " : "") + quoted(f);
    failures += "]";
    const double firstCall =
        std::chrono::duration<double>(timed.t0.time_since_epoch()).count();
    std::printf(
        "{\"workload\": %s, \"first_call_mono_s\": %s, \"wall_s\": %s, "
        "\"cpu_s\": %s, \"peak_rss_mb\": %s, \"attempted\": %llu, "
        "\"failed\": %llu, \"failures\": %s, \"sim_requests\": %s, "
        "\"sim_insts\": %s, \"sim_digest\": %s, \"headline\": %s, "
        "\"layers\": %s}\n",
        quoted(spec.workload).c_str(), number(firstCall).c_str(),
        number(timed.wallSeconds()).c_str(),
        number(timed.cpuSeconds()).c_str(), number(peakRssMb()).c_str(),
        static_cast<unsigned long long>(r.checks.attempted),
        static_cast<unsigned long long>(r.checks.failed), failures.c_str(),
        number(r.simRequests).c_str(), number(r.simInsts).c_str(),
        quoted(r.digest.hex()).c_str(), object(r.headline).c_str(),
        object(r.layers).c_str());
    return 0;
}
