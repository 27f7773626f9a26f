/**
 * @file
 * The paper suite's work plan: equal items share one run, items that
 * differ in any input field stay apart, and a run plan's results equal
 * the runs made directly.
 */

#include <gtest/gtest.h>

#include <set>

#include "plan.h"
#include "simr/records.h"
#include "simr/tuner.h"

using namespace simr;
using namespace simr::bench;

namespace
{

TimingOptions
smallOptions()
{
    TimingOptions opt;
    opt.requests = 16;
    opt.seed = 7;
    return opt;
}

} // namespace

TEST(Plan, MergesEqualTimingCellsAndKeepsOneFieldApart)
{
    const Cell base{"memc", core::makeRpuConfig(), smallOptions()};
    Plan p;
    auto a = p.add(base);
    EXPECT_EQ(p.add(base).index, a.index);

    std::vector<Cell> variants(5, base);
    variants[0].cfg.lanes = 32;
    variants[1].cfg.mem.atomicsAtL3 = !base.cfg.mem.atomicsAtL3;
    variants[2].opt.alloc = mem::AllocPolicy::GlibcLike;
    variants[3].opt.batchOverride = 32;
    variants[4].opt.seed = base.opt.seed + 1;
    std::set<size_t> runs = {a.index};
    for (const auto &v : variants) {
        EXPECT_FALSE(v == base);
        runs.insert(p.add(v).index);
    }
    EXPECT_EQ(runs.size(), 1 + variants.size());
}

TEST(Plan, MergesEqualCacheStudiesAndKeepsL1SizeApart)
{
    CacheStudyOptions opt;
    opt.requests = 32;
    const CacheProbe base{"memc", true, 8, opt};
    CacheProbe other = base;
    other.opt.l1KB = 64;

    Plan p;
    auto a = p.add(base);
    EXPECT_EQ(p.add(base).index, a.index);
    EXPECT_NE(p.add(other).index, a.index);
}

TEST(Plan, RunMatchesDirectRuns)
{
    const TimingOptions opt = smallOptions();
    const Cell cell{"user", core::makeCpuConfig(), opt};
    const EffProbe eff{"user", batch::Policy::PerApi,
                       simt::ReconvPolicy::MinSpPc, 8, 32, 3};
    tune::TunerConfig tcfg;
    tcfg.profileRequests = 32;
    const CacheProbe probe{"user", true, 8, tune::profileStudy(tcfg)};

    Plan p;
    auto hc = p.add(cell);
    auto he = p.add(eff);
    auto ht = p.add(probe);
    p.add(cell);
    p.run();
    EXPECT_NE(p.ledger().find(
                  "\"timing\": {\"declared\": 2, \"run\": 1}"),
              std::string::npos);

    auto svc = svc::buildService("user");
    EXPECT_TRUE(identicalRecords(stderr, "timing", p[hc],
                                 runTiming(*svc, cell.cfg, opt)));
    EXPECT_TRUE(identicalRecords(
        stderr, "efficiency", p[he].stats,
        measureEfficiency(*svc, eff.policy, eff.reconv, eff.width,
                          eff.requests, eff.seed).stats));
    // A tuner candidate is its RPU cache study.
    auto direct = tune::probeBatchSize(*svc, 8, tcfg);
    EXPECT_EQ(tune::pointOf(8, p[ht]).mpki, direct.mpki);
    EXPECT_EQ(tune::pointOf(8, p[ht]).efficiency, direct.efficiency);
}
