/**
 * @file
 * The simulator's benchmark: workload passes, output checks, the
 * simulated-statistics digest and the traced per-layer run.
 *
 * One process runs one pass of one workload and prints one JSON line.
 * `run.py` launches the passes (each in a fresh process, so every
 * process-wide cache the simulator keeps starts cold), takes medians
 * and prints the benchmark's result.
 *
 * Only the simulator's public entry points are called, with their
 * defaults; every thread and shard count is passed explicitly.
 */

#ifndef SIMR_PERFBENCH_PERFBENCH_H
#define SIMR_PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Full paper scale, or the self-test's seconds-long scale. */
enum class Scale { Full, Small };

/** What one pass was asked to do. */
struct PassSpec
{
    std::string workload;   ///< chip_sweep | design_sweep | cluster
    uint64_t seed = 1;
    int threads = 1;
    Scale scale = Scale::Full;
    /** Self-test hook: corrupt one result before the output checks. */
    bool injectFailure = false;
    /** Stop at the first timed call: one more set-up time sample. */
    bool setupOnly = false;
};

/**
 * Outcome of the output checks of a pass. Each expect() is one
 * operation (a cell, a probe, a scenario point), failed when any of
 * its checks fails.
 */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;   ///< first few, for the log

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

/** 64-bit FNV-1a over the canonical bytes of simulated statistics. */
class Digest
{
  public:
    void bytes(const void *p, size_t n);
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v);
    void str(const std::string &s);
    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Everything an untraced or traced pass reports. */
struct PassResult
{
    Checks checks;
    Digest digest;
    double simRequests = 0;   ///< simulated requests completed
    double simInsts = 0;      ///< simulated lane-level instructions
    /** Simulated headline ratios (name -> value), printed by run.py. */
    std::map<std::string, double> headline;
    /** Per-layer metrics (traced run only). */
    std::map<std::string, double> layers;
};

/** Host-clock helpers. */
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU time (user + system, all threads, joined ones too). */
double processCpuSeconds();

/** Peak resident set size of the process in MiB. */
double peakRssMb();

/**
 * The timed part of a pass: from the first timed call to the end of
 * the last one. Output checks and digests run outside it.
 */
struct TimedPart
{
    Clock::time_point t0, t1;
    double cpu0 = 0, cpu1 = 0;

    void
    start()
    {
        cpu0 = processCpuSeconds();
        t0 = Clock::now();
    }

    void
    stop()
    {
        t1 = Clock::now();
        cpu1 = processCpuSeconds();
    }

    double wallSeconds() const
    {
        return std::chrono::duration<double>(t1 - t0).count();
    }
    double cpuSeconds() const { return cpu1 - cpu0; }
};

/** Untraced pass of `spec.workload`: set-up, then the timed part. */
PassResult runPass(const PassSpec &spec, TimedPart &timed);

/**
 * Traced pass: every layer of every workload composed from the layer
 * entry points and timed from outside (see traced.cc). Spans are
 * written to `spanFile` when the pass ends.
 */
PassResult runTraced(const PassSpec &spec, TimedPart &timed,
                     const std::string &spanFile);

} // namespace perfbench

#endif // SIMR_PERFBENCH_PERFBENCH_H
