/**
 * @file
 * System-level microservice-interaction scenario (the uqsim substitute)
 * for the end-to-end experiment of Fig. 22.
 *
 * Models the User scenario of the social-network graph (Fig. 3):
 *
 *   client -> WebServer -> User -> McRouter -> Memcached --hit--> reply
 *                                                  \--miss-> Storage -> reply
 *
 * Open-loop Poisson arrivals at a configurable QPS. Each tier, storage
 * included, is a rate-and-latency queueing station: requests (or whole
 * batches) occupy service capacity 1/R at latency L, so queueing delay
 * emerges under load. The scenario is the 1:1:1:1:1 topology of the
 * cluster engine (sys/cluster.h); this header keeps the per-server tier
 * parameters and the single-graph entry point.
 * The RPU system replaces the CPU tiers with machines of 5x the
 * throughput per watt at 1.2x the latency (the chip-level results), and
 * adds a batch-formation stage (size 32 or timeout). Batch splitting
 * (Section III-B5) decides what happens when some requests in a batch
 * miss memcached and must visit millisecond-scale storage:
 *
 *  - without splitting, every request in the batch waits for the
 *    reconvergence point after storage;
 *  - with splitting, hits return immediately and the blocked orphans
 *    continue alone (paying a SIMT-efficiency penalty on capacity),
 *    re-batched at the storage tier.
 */

#ifndef SIMR_SYS_UQSIM_H
#define SIMR_SYS_UQSIM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace simr::sys
{

/** Scenario + platform configuration. */
struct SysConfig
{
    // Load.
    double qps = 5000;
    int requests = 30000;
    uint64_t seed = 42;

    // Platform.
    bool rpu = false;           ///< RPU machines instead of CPU
    bool batchSplit = true;     ///< Section III-B5 technique
    int batchSize = 32;
    double batchTimeoutUs = 100.0;
    double rpuThroughputScale = 5.0;  ///< from chip-level results
    double rpuLatencyScale = 1.2;
    double orphanPenalty = 4.0; ///< capacity cost factor of split orphans

    // Tier service latencies (us) and CPU capacities (cores).
    double webSvcUs = 30.0;
    double userSvcUs = 100.0;
    double mcrouterSvcUs = 20.0;
    double memcSvcUs = 25.0;
    double storageSvcUs = 1000.0;
    double netUs = 60.0;
    int webCores = 8;
    int userCores = 2;
    int mcrouterCores = 2;
    int memcCores = 2;
    double memcHitRate = 0.9;

    /**
     * Die loudly (simr_fatal) on configurations the model cannot mean
     * anything for: non-positive load or tier capacities, negative
     * latencies, an empty batch window, a hit rate outside [0, 1].
     * Construction-time validation, same pattern as CacheConfig /
     * MemPathConfig: every entry point (runUserScenario, runCluster)
     * calls this before simulating.
     */
    void validate() const;

    bool operator==(const SysConfig &) const = default;
};

/** Per-tier latency breakdown (uqSim-style model validation view). */
struct TierStat
{
    std::string name;  ///< "web", "user", "mcrouter", "memc", "storage"
    RunningStat waitUs;        ///< queueing delay ahead of service
    RunningStat serviceUs;     ///< service occupancy per batch
};

/** Run outcome. */
struct SysResult
{
    double offeredQps = 0;
    double achievedQps = 0;
    Histogram e2eUs;           ///< end-to-end request latency
    std::vector<TierStat> tiers;  ///< per-tier breakdown, tier order

    double meanUs() const { return e2eUs.mean(); }
    double p99Us() const { return e2eUs.percentile(0.99); }
};

/**
 * Simulate the User scenario at one offered load: the single-graph
 * topology (singleGraphCluster in sys/cluster.h: one server per tier,
 * one Poisson client) on the sequential cluster engine.
 *
 * Observability: per-tier wait/occupancy histograms and scenario
 * counters are recorded into the scoped obs::Registry
 * ("sys.<tier>.wait_us", "sys.batches", ...), and when a tracer is in
 * scope the run emits a Perfetto timeline in simulated microseconds --
 * batch-formation spans, per-tier service-occupancy spans, storage
 * visits and per-request async spans. When an obs::JourneyRecorder is
 * in scope (obs::Scope's third slot), every request is handed to it
 * after the run for per-request causal journey capture
 * (obs/journey.h): arrival, batch formation, per-tier
 * enqueue/start/done, memcached hit/miss, storage visits, split
 * retries and reconvergence stalls. Recording and
 * tracing are strictly read-only: the returned SysResult is
 * bit-identical at any capture mode.
 */
SysResult runUserScenario(const SysConfig &cfg);

} // namespace simr::sys

#endif // SIMR_SYS_UQSIM_H
