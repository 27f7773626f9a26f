/**
 * @file
 * Tests for the timing cores: branch prediction (incl. majority
 * voting), the Table IV configurations, and pipeline-level behaviours
 * (OoO vs in-order, SMT latency, SIMT frontend amortization, icache
 * stalls, latency accounting).
 */

#include <gtest/gtest.h>

#include "core/bpred.h"
#include "core/counters.h"
#include "core/pipeline.h"
#include "simr/records.h"
#include "simr/runner.h"

using namespace simr;
using namespace simr::core;

TEST(Gshare, LearnsBias)
{
    // Warmup touches each fresh history pattern once; steady state is
    // near perfect on an always-taken branch.
    Gshare g;
    int mispredicts = 0;
    for (int i = 0; i < 200; ++i) {
        if (g.predict(0x4000) != true)
            ++mispredicts;
        g.update(0x4000, true);
    }
    EXPECT_LT(mispredicts, 20);
    int late = 0;
    for (int i = 0; i < 100; ++i) {
        if (g.predict(0x4000) != true)
            ++late;
        g.update(0x4000, true);
    }
    EXPECT_EQ(late, 0);
}

TEST(Gshare, LearnsLoopExitPattern)
{
    // taken x7, not-taken x1, repeated: gshare's history should catch
    // the exit after warmup.
    Gshare g;
    int mispredicts = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i) {
            bool actual = i != 7;
            if (round > 10 && g.predict(0x100) != actual)
                ++mispredicts;
            g.update(0x100, actual);
        }
    }
    EXPECT_LT(mispredicts, 40 * 2);
}

namespace
{

trace::DynOp
branchOp(trace::Mask mask, trace::Mask taken)
{
    static isa::StaticInst si;
    si = isa::StaticInst();
    si.op = isa::Op::Branch;
    trace::DynOp op;
    op.si = &si;
    op.pc = 0x7000;
    op.mask = mask;
    op.takenMask = taken;
    return op;
}

} // namespace

TEST(BatchBpred, MajorityVoteTrainsOnCommonPath)
{
    BatchBpred bp(true);
    // 30 of 32 lanes take the branch every time.
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(branchOp(0xffffffffu, 0x3fffffffu));
    EXPECT_GT(bp.stats().accuracy(), 0.8);
    EXPECT_EQ(bp.stats().majorityVotes, 100u);
    // The 2 minority lanes flush at commit every time regardless.
    EXPECT_EQ(bp.stats().minorityLaneFlushes, 200u);
}

TEST(BatchBpred, ScalarOpNoVote)
{
    BatchBpred bp(true);
    bp.predictAndTrain(branchOp(0x1, 0x1));
    EXPECT_EQ(bp.stats().majorityVotes, 0u);
    EXPECT_EQ(bp.stats().minorityLaneFlushes, 0u);
}

TEST(BatchBpred, MajorityVoteMinimizesFlushedLanes)
{
    // Lowest lane always diverges from the majority: training on lane
    // 0 optimizes 1 lane and squashes 31; majority voting squashes 1.
    BatchBpred vote(true), lane0(false);
    for (int i = 0; i < 50; ++i) {
        vote.predictAndTrain(branchOp(0xffffffffu, 0xfffffffeu));
        lane0.predictAndTrain(branchOp(0xffffffffu, 0xfffffffeu));
    }
    EXPECT_EQ(vote.stats().minorityLaneFlushes, 50u * 1);
    EXPECT_EQ(lane0.stats().minorityLaneFlushes, 50u * 31);
    EXPECT_EQ(vote.stats().majorityVotes, 50u);
    EXPECT_EQ(lane0.stats().majorityVotes, 0u);
}

TEST(Configs, TableIvShape)
{
    auto cpu = makeCpuConfig();
    auto smt = makeSmt8Config();
    auto rpu = makeRpuConfig();
    auto gpu = makeGpuConfig();

    EXPECT_EQ(cpu.smtThreads * cpu.batchWidth, 1);
    EXPECT_EQ(smt.smtThreads, 8);
    EXPECT_EQ(rpu.batchWidth, 32);
    EXPECT_EQ(rpu.lanes, 8);
    EXPECT_TRUE(gpu.inOrder);
    EXPECT_LT(gpu.freqGhz, cpu.freqGhz);

    // Table IV rows.
    EXPECT_EQ(cpu.mem.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(rpu.mem.l1.sizeBytes, 256u * 1024);
    EXPECT_EQ(rpu.mem.l1.banks, 8u);
    EXPECT_GT(rpu.mem.l1HitLatency, cpu.mem.l1HitLatency);
    EXPECT_GT(rpu.branchLat, cpu.branchLat);
    EXPECT_TRUE(rpu.mem.atomicsAtL3);
    EXPECT_FALSE(cpu.mem.atomicsAtL3);
    EXPECT_EQ(rpu.mem.noc.kind, mem::NocKind::Crossbar);
    EXPECT_EQ(cpu.mem.noc.kind, mem::NocKind::Mesh);
    EXPECT_TRUE(rpu.stackInterleave);
    EXPECT_FALSE(cpu.stackInterleave);
    // Chip thread counts: 98 vs 640 vs 640.
    EXPECT_EQ(cpu.chipCores, 98);
    EXPECT_EQ(smt.chipCores * smt.smtThreads, 640);
    EXPECT_EQ(rpu.chipCores * rpu.batchWidth, 640);
}

namespace
{

TimingRun
runSvc(const std::string &name, const CoreConfig &cfg, int requests = 64)
{
    auto svc = svc::buildService(name);
    TimingOptions opt;
    opt.requests = requests;
    return runTiming(*svc, cfg, opt);
}

} // namespace

TEST(TimingCore, CompletesAllRequests)
{
    auto run = runSvc("urlshort", makeCpuConfig());
    EXPECT_EQ(run.core.requests, 64u);
    EXPECT_GT(run.core.cycles, 0u);
    EXPECT_GT(run.core.scalarInsts, 64u * 20);
    EXPECT_EQ(run.core.reqLatency.count(), 64u);
}

TEST(TimingCore, CpuIpcInDataCenterRange)
{
    auto run = runSvc("memc", makeCpuConfig(), 128);
    EXPECT_GT(run.core.ipc(), 0.1);
    EXPECT_LT(run.core.ipc(), 2.5);
}

TEST(TimingCore, RpuAmortizesFrontend)
{
    auto cpu = runSvc("post", makeCpuConfig(), 128);
    auto rpu = runSvc("post", makeRpuConfig(), 128);
    // Same work, far fewer fetches (one per batch instruction).
    EXPECT_EQ(cpu.core.requests, rpu.core.requests);
    EXPECT_LT(rpu.core.counters.get(ctr::kFetch),
              cpu.core.counters.get(ctr::kFetch) / 8);
    // Lane-level retirement is comparable.
    EXPECT_NEAR(static_cast<double>(rpu.core.scalarInsts),
                static_cast<double>(cpu.core.scalarInsts),
                0.1 * static_cast<double>(cpu.core.scalarInsts));
}

TEST(TimingCore, RpuCoalescesTraffic)
{
    auto cpu = runSvc("post", makeCpuConfig(), 128);
    auto rpu = runSvc("post", makeRpuConfig(), 128);
    EXPECT_LT(rpu.core.l1Stats.accesses, cpu.core.l1Stats.accesses / 2);
}

TEST(TimingCore, InOrderSlowerThanOoO)
{
    auto rpu = runSvc("user", makeRpuConfig(), 96);
    auto gpu = runSvc("user", makeGpuConfig(), 96);
    double rpu_lat = rpu.core.meanLatencyUs();
    double gpu_lat = gpu.core.meanLatencyUs();
    EXPECT_GT(gpu_lat, 2.0 * rpu_lat);
}

TEST(TimingCore, SmtRaisesPerRequestLatency)
{
    auto cpu = runSvc("search-mid", makeCpuConfig(), 128);
    auto smt = runSvc("search-mid", makeSmt8Config(), 128);
    EXPECT_GT(smt.core.reqLatency.mean(), cpu.core.reqLatency.mean());
    EXPECT_EQ(smt.core.requests, 128u);
}

TEST(TimingCore, IcacheStallsCharged)
{
    auto run = runSvc("mcrouter", makeCpuConfig(), 64);
    EXPECT_GT(run.core.counters.get("frontend.icache_miss"), 0u);
}

TEST(TimingCore, CountersPopulated)
{
    auto run = runSvc("memc", makeRpuConfig(), 64);
    const auto &c = run.core.counters;
    for (const char *name :
         {ctr::kFetch, ctr::kDecode, ctr::kRename, ctr::kRobCommit,
          ctr::kIntOps, ctr::kRegRead, ctr::kLsqInsert, ctr::kL1Access,
          ctr::kBpLookup, ctr::kSimtSelect})
        EXPECT_GT(c.get(name), 0u) << name;
}

TEST(TimingCore, MajorityVotingCountsOnRpuOnly)
{
    auto cpu = runSvc("memc", makeCpuConfig(), 64);
    auto rpu = runSvc("memc", makeRpuConfig(), 64);
    EXPECT_EQ(cpu.core.bpStats.majorityVotes, 0u);
    EXPECT_GT(rpu.core.bpStats.majorityVotes, 0u);
}

TEST(TimingCore, LatencyIsPositiveAndBounded)
{
    auto run = runSvc("uniqueid", makeRpuConfig(), 96);
    EXPECT_GT(run.core.reqLatency.min(), 0.0);
    EXPECT_LE(run.core.reqLatency.max(),
              static_cast<double>(run.core.cycles));
}

TEST(CoreResult, CyclesToSecondsPinned)
{
    // Pins the cycles->seconds conversion that latencyRatio() and the
    // end-to-end load sweep depend on: cycles / (freqGhz * 1e9).
    CoreResult r;
    r.freqGhz = 2.5;
    EXPECT_DOUBLE_EQ(r.cyclesToSeconds(2.5e9), 1.0);
    EXPECT_DOUBLE_EQ(r.cyclesToSeconds(2500.0), 1e-6);

    r.reqLatency.add(1000.0);
    r.reqLatency.add(3000.0);  // mean latency: 2000 cycles
    EXPECT_DOUBLE_EQ(r.meanLatencySeconds(), 2000.0 / 2.5e9);
    EXPECT_DOUBLE_EQ(r.meanLatencyUs(), 0.8);

    // A slower clock makes the same cycle count take longer, so the
    // ratio between two cores must be taken in *seconds*, not cycles.
    CoreResult slow;
    slow.freqGhz = 1.25;
    EXPECT_DOUBLE_EQ(slow.cyclesToSeconds(2.5e9), 2.0);
}

TEST(TimingCore, SubBatchLaneSweepMonotone)
{
    // More SIMT lanes never slow the batch down.
    auto svc = svc::buildService("uniqueid");
    TimingOptions opt;
    opt.requests = 96;
    uint64_t prev = UINT64_MAX;
    for (int lanes : {2, 8, 32}) {
        auto cfg = makeRpuConfig();
        cfg.lanes = lanes;
        auto run = runTiming(*svc, cfg, opt);
        EXPECT_LE(run.core.cycles, prev + prev / 10);
        prev = run.core.cycles;
    }
}

class ConfigSmokeTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ConfigSmokeTest, AllConfigsRunAllServices)
{
    auto svc = svc::buildService(GetParam());
    TimingOptions opt;
    opt.requests = 40;
    for (const auto &cfg :
         {makeCpuConfig(), makeSmt8Config(), makeRpuConfig(),
          makeGpuConfig()}) {
        auto run = runTiming(*svc, cfg, opt);
        EXPECT_EQ(run.core.requests, 40u) << cfg.name;
        EXPECT_GT(run.core.cycles, 0u) << cfg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllServices, ConfigSmokeTest,
                         ::testing::ValuesIn(svc::serviceNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(EventDriven, MatchesReferenceLoop)
{
    // Fast in-tree spot check of the determinism gate (the full
    // 14 x 4 sweep runs as the ctest entry core_event_driven_gate via
    // bench_core_speed --verify): the cycle-skipping loop must
    // reproduce the per-cycle reference bit for bit, and the reference
    // must never skip.
    const auto &names = svc::serviceNames();
    std::vector<std::string> picks = {names.front(), names.back()};
    for (const auto &name : picks) {
        auto svc = svc::buildService(name);
        TimingOptions opt;
        opt.requests = 32;
        for (auto cfg : {makeCpuConfig(), makeSmt8Config(),
                         makeRpuConfig(), makeGpuConfig()}) {
            cfg.eventDriven = false;
            auto ref = runTiming(*svc, cfg, opt);
            cfg.eventDriven = true;
            auto evt = runTiming(*svc, cfg, opt);

            EXPECT_EQ(ref.core.skippedCycles, 0u) << cfg.name;
            EXPECT_TRUE(identicalRecords(stderr, name + "/" + cfg.name,
                                         ref, evt));
        }
    }
}

// ---------------------------------------------------------------------
// Stall-counter semantics, pinned over hand-built op streams. Every
// case runs both loop modes. The per-cycle order is commit, issue,
// fetch: ops fetched at cycle 0 first issue at cycle 1, and an op that
// issues at cycle c with latency L wakes its consumers at c + L.

namespace
{

/** Replays a fixed op list; no request bookkeeping. */
class VectorStream : public trace::DynStream
{
  public:
    explicit VectorStream(std::vector<trace::DynOp> ops)
        : ops_(std::move(ops))
    {}

    bool
    next(trace::DynOp &op) override
    {
        if (pos_ == ops_.size())
            return false;
        op.copyFrom(ops_[pos_++]);
        return true;
    }

    uint64_t requestsCompleted() const override { return 0; }

  private:
    std::vector<trace::DynOp> ops_;
    size_t pos_ = 0;
};

isa::StaticInst
staticOf(isa::Op op)
{
    isa::StaticInst si;
    si.op = op;
    si.alu = isa::AluKind::Add;
    return si;
}

const isa::StaticInst kAlu = staticOf(isa::Op::IAlu);
const isa::StaticInst kDiv = staticOf(isa::Op::IDiv);
const isa::StaticInst kFalu = staticOf(isa::Op::FAlu);
const isa::StaticInst kLoad = staticOf(isa::Op::Load);

trace::DynOp
dynOf(const isa::StaticInst &si, uint16_t dep1 = 0, trace::Mask mask = 1)
{
    trace::DynOp op;
    op.si = &si;
    op.mask = mask;
    op.dep1 = dep1;
    return op;
}

/** A load of one 8-byte word, cold in every cache level. */
trace::DynOp
loadOf(uint64_t addr)
{
    trace::DynOp op = dynOf(kLoad);
    op.accessSize = 8;
    op.addrCount = 1;
    op.lane[0] = 0;
    op.addr[0] = addr;
    return op;
}

/** One in-order-commit CPU core with no i-cache stalls. */
CoreConfig
quietCpu()
{
    CoreConfig cfg = makeCpuConfig();
    cfg.icacheMpki = 0;
    cfg.aluLat = 1;
    cfg.divLat = 12;
    return cfg;
}

/** Runs `ops` on one stream in both loop modes; returns the counters. */
CounterSet
stallsOf(CoreConfig cfg, const std::vector<trace::DynOp> &ops)
{
    CounterSet out;
    for (bool event : {false, true}) {
        cfg.eventDriven = event;
        VectorStream s(ops);
        TimingCore core(cfg);
        CoreResult r = core.run({&s}, 1000000);
        EXPECT_EQ(r.batchOps, ops.size());
        if (event) {
            EXPECT_EQ(r.counters.all(), out.all()) << "modes differ";
        }
        out = r.counters;
    }
    return out;
}

/** Latency of a cold load: a lone one issues at 1, retires at 1 + T. */
uint64_t
coldLoadLatency(uint64_t addr)
{
    VectorStream s({loadOf(addr)});
    TimingCore core(quietCpu());
    return core.run({&s}).cycles - 2;
}

} // namespace

TEST(StallCounters, DependenceChainBehindLoad)
{
    // L; A1 <- L; A2 <- A1; A3 <- A2. Cycles 1..T: all three wait.
    // Then one fewer waits each cycle as the chain drains.
    const uint64_t t = coldLoadLatency(0x40000);
    ASSERT_GT(t, 10u);
    auto c = stallsOf(quietCpu(), {loadOf(0x40000), dynOf(kAlu, 1),
                                   dynOf(kAlu, 1), dynOf(kAlu, 1)});
    EXPECT_EQ(c.get("stall.dep"), 3 * t + 2 + 1);
    EXPECT_EQ(c.get("stall.lsq"), 0u);
    EXPECT_EQ(c.get("stall.port"), 0u);
}

TEST(StallCounters, IssueWidthStopsTheCount)
{
    // D (div, 12 cycles); X1 <- D; I1; X2 <- D; I2, two issue slots.
    // Cycle 1: D issues, X1 waits, I1 takes the last slot; X2 and I2
    // are not looked at. Cycle 2: X1 and X2 wait, I2 issues. Cycles
    // 3..12: X1 and X2 wait. Cycle 13: both issue.
    CoreConfig cfg = quietCpu();
    cfg.issueWidth = 2;
    auto c = stallsOf(cfg, {dynOf(kDiv), dynOf(kAlu, 1), dynOf(kAlu),
                            dynOf(kAlu, 3), dynOf(kAlu)});
    EXPECT_EQ(c.get("stall.dep"), 1u + 2u + 10u * 2u);
}

TEST(StallCounters, SchedWindowBoundsTheCount)
{
    // D; X1, X2, X3 <- D; I, with a two-entry window over unissued ops.
    // Cycle 1: D issues, X1 waits (window full). Cycles 2..12: X1 and
    // X2 wait; X3 and I are outside. Cycle 13: X1 and X2 issue; cycle
    // 14: X3 and I.
    CoreConfig cfg = quietCpu();
    cfg.schedWindow = 2;
    auto c = stallsOf(cfg, {dynOf(kDiv), dynOf(kAlu, 1), dynOf(kAlu, 2),
                            dynOf(kAlu, 3), dynOf(kAlu)});
    EXPECT_EQ(c.get("stall.dep"), 1u + 11u * 2u);
}

TEST(StallCounters, FullLsq)
{
    // Two independent loads, one LSQ entry: the second waits while the
    // first is in flight (cycles 1..T), then issues.
    const uint64_t t = coldLoadLatency(0x40000);
    CoreConfig cfg = quietCpu();
    cfg.lsqEntries = 1;
    auto c = stallsOf(cfg, {loadOf(0x40000), loadOf(0x80000), dynOf(kAlu)});
    EXPECT_EQ(c.get("stall.lsq"), t);
    EXPECT_EQ(c.get("stall.dep"), 0u);
}

TEST(StallCounters, PortStarvation)
{
    // Three independent ALU ops, one ALU port: 2 wait at cycle 1, 1 at
    // cycle 2.
    CoreConfig cfg = quietCpu();
    cfg.intAluPorts = 1;
    auto c = stallsOf(cfg, {dynOf(kAlu), dynOf(kAlu), dynOf(kAlu)});
    EXPECT_EQ(c.get("stall.port"), 3u);
    EXPECT_EQ(c.get("stall.dep"), 0u);
}

TEST(StallCounters, InOrderCountsOnlyTheHead)
{
    // D; X1, X2 <- D; I. Out of order, X1 and X2 wait for cycles
    // 1..12 and I issues at once. In order, only X1 (the stream's
    // oldest unissued op) is counted; X2 and I are skipped silently.
    const std::vector<trace::DynOp> ops = {dynOf(kDiv), dynOf(kAlu, 1),
                                           dynOf(kAlu, 2), dynOf(kAlu)};
    EXPECT_EQ(stallsOf(quietCpu(), ops).get("stall.dep"), 12u * 2u);
    CoreConfig cfg = quietCpu();
    cfg.inOrder = true;
    EXPECT_EQ(stallsOf(cfg, ops).get("stall.dep"), 12u);
}

TEST(StallCounters, RetiredProducerIsNoDependence)
{
    // C (seq 8001) reads P (seq 1), retired ~1000 cycles earlier. C
    // waits for the one FP port behind a 32-lane op, and meanwhile the
    // stream fetches seq 8193, which shared P's slot in an 8192-entry
    // completion ring. No op here depends on an in-flight producer, so
    // no dependence stall may be recorded.
    CoreConfig cfg = quietCpu();
    cfg.intAluPorts = 8;
    cfg.simdPorts = 1;  // also the FP port count
    std::vector<trace::DynOp> ops;
    ops.push_back(dynOf(kAlu));                       // seq 1: P
    while (ops.size() < 7999)
        ops.push_back(dynOf(kAlu));
    ops.push_back(dynOf(kFalu, 0, 0xffffffffu));      // seq 8000
    ops.push_back(dynOf(kFalu, 8000));                // seq 8001: C
    while (ops.size() < 8192)
        ops.push_back(dynOf(kAlu));
    ops.push_back(dynOf(kFalu));                      // seq 8193
    while (ops.size() < 8300)
        ops.push_back(dynOf(kAlu));
    auto c = stallsOf(cfg, ops);
    EXPECT_EQ(c.get("stall.dep"), 0u);
    EXPECT_GT(c.get("stall.port"), 0u);
}
