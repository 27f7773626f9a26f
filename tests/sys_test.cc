/**
 * @file
 * Tests for the system-level (uqsim-substitute) simulator: unloaded
 * latency composition, queueing under load, batch splitting effects,
 * throughput relationships, and journey capture: exact per-request
 * latency decomposition, scenario-consistent journey flags, the
 * no-perturbation invariant (SysResult bit-identical with journeys
 * off, sampled or full) and the system results' identity records.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/anatomy.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simr/records.h"
#include "sys/cluster.h"
#include "sys/pdes.h"
#include "sys/uqsim.h"

using namespace simr;
using namespace simr::sys;

namespace
{

SysConfig
base(double kqps, bool rpu, bool split)
{
    SysConfig cfg;
    cfg.qps = kqps * 1000.0;
    cfg.rpu = rpu;
    cfg.batchSplit = split;
    cfg.requests = 20000;
    cfg.seed = 3;
    return cfg;
}

} // namespace

TEST(Uqsim, UnloadedCpuLatencyComposition)
{
    auto r = runUserScenario(base(1, false, true));
    // Hit path: 4 tier latencies + 5 network hops.
    double hit = 30 + 100 + 20 + 25 + 5 * 60;
    EXPECT_GT(r.meanUs(), hit * 0.9);
    // 90% of requests do not see storage.
    EXPECT_LT(r.e2eUs.percentile(0.5), hit * 1.5);
    // The tail is the storage path.
    EXPECT_GT(r.p99Us(), 1000.0);
    EXPECT_LT(r.p99Us(), hit + 1000 + 3 * 60 + 100);
}

TEST(Uqsim, LatencyGrowsWithLoad)
{
    auto lo = runUserScenario(base(2, false, true));
    auto mid = runUserScenario(base(15, false, true));
    EXPECT_GT(mid.meanUs(), lo.meanUs());
}

TEST(Uqsim, OverloadExplodes)
{
    auto over = runUserScenario(base(40, false, true));
    EXPECT_GT(over.meanUs(), 20.0 * 1000.0) << "way past capacity";
}

TEST(Uqsim, RpuSustainsHigherLoad)
{
    // At 40 kQPS the CPU system has collapsed; the RPU system hasn't.
    auto cpu = runUserScenario(base(40, false, true));
    auto rpu = runUserScenario(base(40, true, true));
    EXPECT_LT(rpu.meanUs() * 10, cpu.meanUs());
    EXPECT_LT(rpu.p99Us(), 2500.0);
}

TEST(Uqsim, NoSplitRaisesAverageNotTail)
{
    auto split = runUserScenario(base(30, true, true));
    auto nosplit = runUserScenario(base(30, true, false));
    // Without splitting, hits wait for the storage path at the
    // reconvergence point: average rises toward the miss latency.
    EXPECT_GT(nosplit.meanUs(), split.meanUs() + 100.0);
    // The tail is the storage path either way.
    EXPECT_NEAR(nosplit.p99Us(), split.p99Us(), 600.0);
}

TEST(Uqsim, SplitOrphansConsumeCapacity)
{
    // With splitting, orphan re-execution costs capacity: saturation
    // arrives earlier than without splitting.
    auto split = runUserScenario(base(120, true, true));
    auto nosplit = runUserScenario(base(120, true, false));
    EXPECT_GT(split.meanUs(), nosplit.meanUs());
}

TEST(Uqsim, HitRateControlsTail)
{
    auto cfg = base(5, false, true);
    cfg.memcHitRate = 1.0;
    auto all_hit = runUserScenario(cfg);
    EXPECT_LT(all_hit.p99Us(), 1000.0) << "no storage visits, no tail";
}

TEST(Uqsim, BatchFormationAddsBoundedDelay)
{
    // At low load, RPU batches emit on timeout: the extra latency is
    // bounded by the batching window.
    auto cpu = runUserScenario(base(5, false, true));
    auto rpu = runUserScenario(base(5, true, true));
    EXPECT_LT(rpu.meanUs(), cpu.meanUs() + 100.0 + 200.0);
}

TEST(Uqsim, AchievedMatchesOfferedBelowSaturation)
{
    auto r = runUserScenario(base(10, false, true));
    EXPECT_NEAR(r.achievedQps, 10000.0, 1500.0);
}

TEST(Uqsim, DeterministicForSeed)
{
    auto a = runUserScenario(base(10, true, true));
    auto b = runUserScenario(base(10, true, true));
    EXPECT_TRUE(identicalRecords(stderr, "same seed", a, b));
}

TEST(Uqsim, Fig22MaxThroughputVerdict)
{
    // The Fig. 22 grid at default scale: the highest offered load whose
    // p99 stays under 2.5 ms. The paper's RPU sustains ~4x the CPU
    // system's load; without splitting the tail stays acceptable, so
    // the unsplit system reaches at least the split one's load.
    auto maxOk = [](bool rpu, bool split,
                    const std::vector<double> &loads_kqps) {
        double best = 0;
        for (double kqps : loads_kqps) {
            SysConfig cfg;
            cfg.qps = kqps * 1000;
            cfg.rpu = rpu;
            cfg.batchSplit = split;
            if (runUserScenario(cfg).p99Us() < 2500)
                best = kqps;
        }
        return best;
    };
    const std::vector<double> cpu = {2, 4, 6, 8, 10, 12, 15, 18, 20, 25};
    const std::vector<double> rpu = {5,  10, 20, 30, 40, 50,
                                     60, 70, 80, 90, 100};
    double cpu_max = maxOk(false, true, cpu);
    double split_max = maxOk(true, true, rpu);
    double nosplit_max = maxOk(true, false, rpu);
    ASSERT_GT(cpu_max, 0.0);
    EXPECT_GE(split_max / cpu_max, 3.5);
    EXPECT_LE(split_max / cpu_max, 4.5);
    EXPECT_GE(nosplit_max, split_max);
}

namespace
{

/** Run the scenario with a journey recorder in scope. */
SysResult
runWithJourneys(const SysConfig &cfg, obs::JourneyRecorder *rec)
{
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr, rec);
    return runUserScenario(cfg);
}

} // namespace

TEST(UqsimJourneys, DecomposeExactlyToEndToEndLatency)
{
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 128);
    auto r = runWithJourneys(base(20, true, true), &rec);
    EXPECT_EQ(rec.seen(), 20000u);
    auto journeys = rec.snapshot();
    ASSERT_FALSE(journeys.empty());
    ASSERT_LE(journeys.size(), 128u);
    for (const auto &j : journeys) {
        ASSERT_GE(j.events.size(), 2u);
        EXPECT_EQ(j.events.front().kind, obs::JStage::Arrival);
        EXPECT_EQ(j.events.back().kind, obs::JStage::Completion);
        // Time-ordered causal chain.
        for (size_t k = 1; k < j.events.size(); ++k)
            EXPECT_GE(j.events[k].tick, j.events[k - 1].tick)
                << "req " << j.reqId << " event " << k;
        // The tentpole identity: buckets sum EXACTLY to e2e.
        obs::RequestAnatomy a = obs::decompose(j);
        EXPECT_EQ(a.sumTicks(), a.e2eTicks) << "req " << j.reqId;
        // And with the chip link splitting the user tier's service.
        obs::ChipLink link;
        link.tier = 1;
        link.divergenceFrac = 0.33;
        link.memoryFrac = 0.25;
        obs::RequestAnatomy al = obs::decompose(j, &link);
        EXPECT_EQ(al.sumTicks(), al.e2eTicks) << "req " << j.reqId;
        // The journey's latency matches the histogram's value range
        // (ticks quantize at 2^-10 us).
        EXPECT_GE(j.e2eUs(), r.e2eUs.min() - 0.001);
        EXPECT_LE(j.e2eUs(), r.e2eUs.max() + 0.001);
    }
}

TEST(UqsimJourneys, AllModeCapturesEveryRequest)
{
    SysConfig cfg = base(20, true, true);
    cfg.requests = 4000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runWithJourneys(cfg, &rec);
    EXPECT_EQ(rec.seen(), 4000u);
    EXPECT_EQ(rec.kept(), 4000u);
    auto journeys = rec.snapshot();
    ASSERT_EQ(journeys.size(), 4000u);
    for (size_t i = 0; i < journeys.size(); ++i)
        EXPECT_EQ(journeys[i].reqId, i);
}

TEST(UqsimJourneys, FlagsReflectTheScenario)
{
    // Split RPU system: misses visit storage (tier 4) as orphans;
    // hits complete at the memcached tier and never block.
    SysConfig cfg = base(20, true, true);
    cfg.requests = 4000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runWithJourneys(cfg, &rec);
    size_t misses = 0;
    for (const auto &j : rec.snapshot()) {
        bool storage = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::TierStart && e.tier == 4)
                storage = true;
        EXPECT_EQ(storage, j.miss) << "req " << j.reqId;
        EXPECT_EQ(j.orphan, j.miss) << "req " << j.reqId;
        EXPECT_FALSE(j.blockedOnBatch) << "req " << j.reqId;
        misses += j.miss;
    }
    EXPECT_GT(misses, 0u);

    // Unsplit RPU system: hits in a mixed batch stall at the
    // reconvergence point -- a foreign-caused ReconvJoin segment.
    SysConfig nosplit = cfg;
    nosplit.batchSplit = false;
    obs::JourneyRecorder rec2(obs::JourneyMode::All, 64);
    runWithJourneys(nosplit, &rec2);
    size_t blocked = 0;
    for (const auto &j : rec2.snapshot()) {
        if (!j.blockedOnBatch)
            continue;
        ++blocked;
        EXPECT_FALSE(j.miss) << "req " << j.reqId;
        bool foreign_join = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::ReconvJoin && e.foreign)
                foreign_join = true;
        EXPECT_TRUE(foreign_join) << "req " << j.reqId;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(UqsimJourneys, CaptureNeverPerturbsSysResult)
{
    // The no-perturbation invariant at test scale (bench_obs
    // --verify-journeys re-checks it across thread counts): every
    // histogram sample and tier statistic is bit-identical with
    // journeys off, sampled and full.
    SysConfig cfg = base(20, true, true);
    cfg.requests = 6000;
    auto off = runUserScenario(cfg);
    obs::JourneyRecorder sampled(obs::JourneyMode::Sampled, 64);
    auto mid = runWithJourneys(cfg, &sampled);
    obs::JourneyRecorder all(obs::JourneyMode::All, 64);
    auto full = runWithJourneys(cfg, &all);
    EXPECT_TRUE(identicalRecords(stderr, "journeys sampled", off, mid));
    EXPECT_TRUE(identicalRecords(stderr, "journeys all", off, full));
}

// ---------------------------------------------------------------------
// Construction-time validation (SysConfig / ClusterConfig): bad
// configurations die loudly at the config boundary, before simulating.
// ---------------------------------------------------------------------

TEST(SysConfigValidation, RejectsNonsense)
{
    SysConfig c;
    c.qps = 0;
    EXPECT_DEATH(c.validate(), "qps");

    c = SysConfig{};
    c.requests = 0;
    EXPECT_DEATH(c.validate(), "requests");

    c = SysConfig{};
    c.batchSize = 0;
    EXPECT_DEATH(c.validate(), "batchSize");

    c = SysConfig{};
    c.netUs = -1;
    EXPECT_DEATH(c.validate(), "netUs");

    c = SysConfig{};
    c.userCores = 0;
    EXPECT_DEATH(c.validate(), "core");

    c = SysConfig{};
    c.memcHitRate = 1.5;
    EXPECT_DEATH(c.validate(), "memcHitRate");

    c = SysConfig{};
    c.storageSvcUs = 0;
    EXPECT_DEATH(c.validate(), "service latencies");
}

TEST(ClusterConfigValidation, RejectsEmptyGraphsAndBadLoad)
{
    ClusterConfig c;
    c.webServers = 0;
    EXPECT_DEATH(c.validate(), "empty graph");

    c = ClusterConfig{};
    c.storageServers = 0;
    EXPECT_DEATH(c.validate(), "empty graph");

    c = ClusterConfig{};
    c.storageCores = 0;
    EXPECT_DEATH(c.validate(), "storageCores");

    c = ClusterConfig{};
    c.users = 0;
    EXPECT_DEATH(c.validate(), "users");

    c = ClusterConfig{};
    c.requests = 0;
    EXPECT_DEATH(c.validate(), "requests");

    c = ClusterConfig{};
    c.qps = -5;
    EXPECT_DEATH(c.validate(), "qps");

    c = ClusterConfig{};
    c.burstProb = 2;
    EXPECT_DEATH(c.validate(), "burstProb");

    c = ClusterConfig{};
    c.mailboxCapacity = 0;
    EXPECT_DEATH(c.validate(), "mailboxCapacity");

    // A bad embedded SysConfig is caught through the same gate.
    c = ClusterConfig{};
    c.base.memcHitRate = -0.1;
    EXPECT_DEATH(c.validate(), "memcHitRate");
}

// ---------------------------------------------------------------------
// Sharded PDES cluster engine vs the sequential reference.
// ---------------------------------------------------------------------

namespace
{

ClusterConfig
smallCluster(bool rpu, bool split)
{
    ClusterConfig c;
    c.webServers = 4;
    c.userServers = 3;
    c.mcrouterServers = 2;
    c.memcServers = 2;
    c.storageServers = 1;
    c.users = 500;
    c.requests = 6000;
    c.qps = 30000;
    c.seed = 7;
    c.base.rpu = rpu;
    c.base.batchSplit = split;
    return c;
}

ClusterResult
runSharded(ClusterConfig cfg, int shards, int threads)
{
    cfg.shards = shards;
    cfg.threads = threads;
    obs::Registry reg;
    obs::Scope scope(&reg);
    return runCluster(cfg);
}

ClusterResult
runClusterSequentialInScope(const ClusterConfig &cfg)
{
    obs::Registry reg;
    obs::Scope scope(&reg);
    return runClusterSequential(cfg);
}

} // namespace

TEST(ClusterPdes, ShardAndThreadCountIndependence)
{
    // The regression companion of ctest's sys_pdes_gate: SysResult --
    // including every per-tier statistic, which is merged across
    // shards in node order -- must not depend on how the cluster is
    // sharded or how many workers drive it.
    for (bool rpu : {false, true}) {
        SCOPED_TRACE(rpu ? "rpu" : "cpu");
        ClusterResult ref =
            runClusterSequentialInScope(smallCluster(rpu, true));
        for (int shards : {1, 2, 8, 16})
            for (int threads : {1, 4}) {
                SCOPED_TRACE(std::to_string(shards) + " shards, " +
                             std::to_string(threads) + " threads");
                EXPECT_TRUE(identicalRecords(
                    stderr, "sharded", ref,
                    runSharded(smallCluster(rpu, true), shards,
                               threads)));
            }
    }
}

TEST(ClusterPdes, UserScenarioIsTheSingleServerTopology)
{
    // Fig. 22's single graph is the 1:1:1:1:1 cluster with one Poisson
    // client: runUserScenario must report exactly what the cluster
    // engine does on that topology, sequential or sharded.
    for (bool rpu : {false, true}) {
        SCOPED_TRACE(rpu ? "rpu" : "cpu");
        SysConfig sc = base(20, rpu, true);
        sc.requests = 6000;
        ClusterConfig cc;
        cc.base = sc;
        cc.webServers = cc.userServers = cc.mcrouterServers = 1;
        cc.memcServers = cc.storageServers = 1;
        cc.users = 1;
        cc.requests = 6000;
        cc.qps = sc.qps;
        cc.seed = sc.seed;
        SysResult r;
        {
            obs::Registry reg;
            obs::Scope scope(&reg);
            r = runUserScenario(sc);
        }
        ClusterResult ref = runClusterSequentialInScope(cc);
        EXPECT_EQ(ref.servers, 5u);
        EXPECT_TRUE(identicalRecords(stderr, "single graph", ref.sys, r));
        EXPECT_TRUE(
            identicalRecords(stderr, "sharded", ref, runSharded(cc, 4, 4)));
    }
}

TEST(ClusterPdes, ZeroLookaheadDegeneratesToSequential)
{
    // netUs == 0 admits no conservative window: the engine must fall
    // back to the sequential single-shard loop (bit-identically, by
    // construction) rather than parallelize incorrectly.
    ClusterConfig cfg = smallCluster(true, true);
    cfg.base.netUs = 0;
    ClusterResult ref = runClusterSequentialInScope(cfg);
    ClusterResult r = runSharded(cfg, 8, 4);
    EXPECT_EQ(r.pdes.shards, 1);
    EXPECT_EQ(r.pdes.workers, 1);
    EXPECT_EQ(r.pdes.mailboxSends, 0u);
    EXPECT_TRUE(identicalRecords(stderr, "sharded", ref, r));
}

TEST(ClusterPdes, MailboxOverflowBackpressureIsInvisible)
{
    // A one-slot mailbox must overflow into the spill path under any
    // real cross-shard traffic -- and the spill must change nothing
    // but the transport diagnostics.
    ClusterConfig cfg = smallCluster(true, true);
    cfg.mailboxCapacity = 1;
    ClusterResult ref = runClusterSequentialInScope(cfg);
    ClusterResult r = runSharded(cfg, 16, 4);
    EXPECT_GT(r.pdes.mailboxSends, 0u);
    EXPECT_GT(r.pdes.mailboxOverflows, 0u);
    EXPECT_TRUE(identicalRecords(stderr, "sharded", ref, r));
}

namespace
{

/**
 * Toy PDES model for kernel edge cases: `origins` tokens hop around a
 * ring of nodes, each hop exactly one lookahead L later. With zero
 * service latency every cross-shard event lands EXACTLY on its source
 * window's end -- the boundary the conservative contract (>=, strict <
 * on processing) must handle. Each node logs its (time, key) sequence.
 */
struct ChainModel : sys::Model
{
    uint32_t nnodes;
    double net;
    std::vector<std::vector<std::pair<double, uint64_t>>> log;

    ChainModel(uint32_t n, double l) : nnodes(n), net(l), log(n) {}

    uint32_t nodeCount() const override { return nnodes; }
    void prepare(int, int) override {}

    void
    apply(const sys::Event &ev, sys::EventSink &sink, int) override
    {
        log[ev.node].push_back({ev.time, ev.key});
        if (ev.aux == 0)
            return;
        sink.emit({ev.time + net, ev.key + 1,
                   (ev.node + 1) % nnodes, 0, ev.batch, ev.aux - 1});
    }
};

} // namespace

TEST(ClusterPdes, CrossShardEventExactlyAtWindowBoundary)
{
    // 16 tokens x 12 hops on an 8-node ring, every hop landing exactly
    // at the emitting window's end. The sharded runs must log the very
    // same per-node (time, key) sequences as the sequential one, and
    // conservative windowing must advance exactly one time step per
    // window (hops + 1 windows: nothing is processed early, nothing
    // is starved).
    const uint32_t nodes = 8;
    const uint64_t origins = 16, hops = 12;
    const double net = 5.0;
    auto initial = [&] {
        std::vector<sys::Event> evs;
        for (uint64_t o = 0; o < origins; ++o)
            evs.push_back({0.0, o * (hops + 1),
                           static_cast<uint32_t>(o % nodes), 0, o,
                           hops});
        return evs;
    };

    ChainModel ref(nodes, net);
    sys::PdesConfig seq;
    seq.lookaheadUs = net;
    sys::PdesStats seq_stats = sys::runPdes(ref, initial(), seq);
    EXPECT_EQ(seq_stats.events, origins * (hops + 1));

    for (int shards : {2, 4, 8})
        for (int threads : {1, 3}) {
            SCOPED_TRACE(std::to_string(shards) + " shards, " +
                         std::to_string(threads) + " threads");
            ChainModel m(nodes, net);
            sys::PdesConfig pc;
            pc.lookaheadUs = net;
            pc.shards = shards;
            pc.threads = threads;
            pc.mailboxCapacity = 4;
            sys::PdesStats st = sys::runPdes(m, initial(), pc);
            EXPECT_EQ(st.events, origins * (hops + 1));
            EXPECT_EQ(st.windows, hops + 1);
            EXPECT_GT(st.mailboxSends, 0u);
            EXPECT_EQ(m.log, ref.log);
        }
}

// ---------------------------------------------------------------------
// Journey capture at cluster scale.
// ---------------------------------------------------------------------

namespace
{

ClusterResult
runClusterWithJourneys(ClusterConfig cfg, int shards, int threads,
                       obs::JourneyRecorder *rec)
{
    cfg.shards = shards;
    cfg.threads = threads;
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr, rec);
    return runCluster(cfg);
}

} // namespace

TEST(ClusterJourneys, FlagsAndExactDecompositionAcrossShards)
{
    // Full capture on the sharded engine: every request journeys, the
    // per-bucket decomposition telescopes exactly, and the flags match
    // the scenario (split RPU: misses are storage-visiting orphans).
    ClusterConfig cfg = smallCluster(true, true);
    cfg.requests = 3000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runClusterWithJourneys(cfg, 8, 4, &rec);
    EXPECT_EQ(rec.seen(), cfg.requests);
    EXPECT_EQ(rec.kept(), cfg.requests);
    auto journeys = rec.snapshot();
    ASSERT_EQ(journeys.size(), cfg.requests);
    size_t misses = 0;
    for (size_t i = 0; i < journeys.size(); ++i) {
        const obs::Journey &j = journeys[i];
        EXPECT_EQ(j.reqId, i);
        ASSERT_GE(j.events.size(), 2u);
        EXPECT_EQ(j.events.front().kind, obs::JStage::Arrival);
        EXPECT_EQ(j.events.back().kind, obs::JStage::Completion);
        for (size_t k = 1; k < j.events.size(); ++k)
            EXPECT_GE(j.events[k].tick, j.events[k - 1].tick)
                << "req " << j.reqId << " event " << k;
        obs::RequestAnatomy a = obs::decompose(j);
        EXPECT_EQ(a.sumTicks(), a.e2eTicks) << "req " << j.reqId;
        bool storage = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::TierStart && e.tier == 4)
                storage = true;
        EXPECT_EQ(storage, j.miss) << "req " << j.reqId;
        EXPECT_EQ(j.orphan, j.miss) << "req " << j.reqId;
        EXPECT_FALSE(j.blockedOnBatch) << "req " << j.reqId;
        misses += j.miss;
    }
    EXPECT_GT(misses, 0u);

    // Unsplit RPU: hits in mixed batches stall at the reconvergence
    // point, flagged as foreign-caused ReconvJoin segments.
    ClusterConfig nosplit = smallCluster(true, false);
    nosplit.requests = 3000;
    obs::JourneyRecorder rec2(obs::JourneyMode::All, 64);
    runClusterWithJourneys(nosplit, 8, 4, &rec2);
    size_t blocked = 0;
    for (const auto &j : rec2.snapshot()) {
        if (!j.blockedOnBatch)
            continue;
        ++blocked;
        EXPECT_FALSE(j.miss) << "req " << j.reqId;
        bool foreign_join = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::ReconvJoin && e.foreign)
                foreign_join = true;
        EXPECT_TRUE(foreign_join) << "req " << j.reqId;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(ClusterJourneys, SampledJourneysEqualTheirAllModeRecords)
{
    // A sampled journey is built by the same code as its All-mode
    // twin: record for record, whichever requests the sample picks,
    // at any shard count. The unsplit case covers reconvergence stalls.
    for (bool split : {true, false}) {
        ClusterConfig cfg = smallCluster(true, split);
        cfg.requests = 3000;
        for (int shards : {1, 4}) {
            obs::JourneyRecorder sampled(obs::JourneyMode::Sampled, 64);
            obs::JourneyRecorder all(obs::JourneyMode::All, 64);
            runClusterWithJourneys(cfg, shards, 2, &sampled);
            runClusterWithJourneys(cfg, shards, 2, &all);
            const std::vector<obs::Journey> every = all.snapshot();
            ASSERT_EQ(every.size(), cfg.requests);
            const std::vector<obs::Journey> picked = sampled.snapshot();
            ASSERT_EQ(picked.size(), 64u);
            std::vector<obs::Journey> twins;
            for (const obs::Journey &j : picked)
                twins.push_back(every[j.reqId]);  // All mode: by reqId
            EXPECT_TRUE(identicalRecords(
                stderr,
                std::string(split ? "split" : "unsplit") + ", shards " +
                    std::to_string(shards),
                twins, picked));
        }
    }
}

TEST(ClusterTrace, ShardedTimelineBalancesAndNeverPerturbs)
{
    // Shard workers emit into one mutex-protected tracer: every
    // request opens and closes its async span exactly once, tier spans
    // land on the per-tier tracks, and the result is the untraced one.
    ClusterConfig cfg = smallCluster(true, true);
    cfg.requests = 3000;
    ClusterResult off = runClusterSequentialInScope(cfg);
    obs::Registry reg;
    obs::Tracer tr;
    ClusterResult traced;
    {
        obs::Scope scope(&reg, &tr);
        ClusterConfig sharded = cfg;
        sharded.shards = 8;
        sharded.threads = 4;
        traced = runCluster(sharded);
    }
    EXPECT_TRUE(identicalRecords(stderr, "traced", off, traced));
    uint64_t opened = 0, closed = 0, storage = 0, batching = 0;
    for (const auto &e : tr.events()) {
        if (e.ph == 'b')
            ++opened;
        else if (e.ph == 'e')
            ++closed;
        else if (e.ph == 'X' && e.cat == "sys" && e.tid == 6)
            ++storage;
        else if (e.ph == 'X' && e.cat == "batching")
            ++batching;
    }
    EXPECT_EQ(opened, cfg.requests);
    EXPECT_EQ(closed, cfg.requests);
    EXPECT_GT(storage, 0u);
    EXPECT_EQ(batching, traced.batches);
}

TEST(ClusterJourneys, CaptureNeverPerturbsClusterResult)
{
    // Journey capture is read-only at cluster scale too: full capture
    // on the sharded engine reports the same bits as the sequential
    // reference with no recorder at all.
    ClusterConfig cfg = smallCluster(true, true);
    ClusterResult off = runClusterSequentialInScope(cfg);
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    ClusterResult full = runClusterWithJourneys(cfg, 8, 4, &rec);
    EXPECT_TRUE(identicalRecords(stderr, "journeys all", off, full));
}

// Result identity (simr/records.h) of the system results: one changed
// field names exactly its key. (PdesStats stay out of the records:
// ClusterPdes.MailboxOverflowBackpressureIsInvisible diffs runs whose
// mailbox statistics differ.)

namespace
{

/** The one key a diff names: "" when empty, else "<n> keys". */
std::string
changedKey(const Records &want, const Records &got)
{
    const auto d = compare(want, got);
    return d.empty() ? "" :
        d.size() == 1 ? d[0].key : std::to_string(d.size()) + " keys";
}

} // namespace

TEST(Records, SysAndClusterDiffNamesTheChangedField)
{
    ClusterConfig cfg = smallCluster(true, true);
    cfg.requests = 2000;
    const ClusterResult run = runClusterSequentialInScope(cfg);
    const Records ref = recordsOf(run);
    EXPECT_EQ(changedKey(ref, recordsOf(run)), "");
    ClusterResult c = run;
    c.sys.achievedQps += 1;
    EXPECT_EQ(changedKey(ref, recordsOf(c)), "achieved_qps");
    c = run;
    ++c.splitOrphans;
    EXPECT_EQ(changedKey(ref, recordsOf(c)), "split_orphans");
    c = run;
    std::swap(c.sys.tiers[0], c.sys.tiers[1]);
    EXPECT_EQ(changedKey(ref, recordsOf(c)), "2 keys") << "tier order";
}

TEST(Records, JourneySetDiffNamesTheChangedJourney)
{
    ClusterConfig cfg = smallCluster(true, true);
    cfg.requests = 2000;
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 16);
    runClusterWithJourneys(cfg, 1, 1, &rec);
    const std::vector<obs::Journey> js = rec.snapshot();
    ASSERT_GE(js.size(), 4u);
    ASSERT_GE(js[3].events.size(), 3u);
    const Records ref = recordsOf(js);
    EXPECT_EQ(changedKey(ref, recordsOf(js)), "");
    std::vector<obs::Journey> c = js;
    c[0].orphan = !c[0].orphan;
    EXPECT_EQ(changedKey(ref, recordsOf(c)), "journey/0/orphan");
    c = js;
    c[3].events[2].foreign = !c[3].events[2].foreign;
    EXPECT_EQ(changedKey(ref, recordsOf(c)), "journey/3/events_fnv");
}
