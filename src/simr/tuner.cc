#include "simr/tuner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace simr::tune
{

CacheStudyOptions
profileStudy(const TunerConfig &cfg)
{
    CacheStudyOptions opt;
    opt.requests = cfg.profileRequests;
    opt.seed = cfg.seed;
    opt.l1KB = cfg.l1KB;
    return opt;
}

TunePoint
pointOf(int batch_size, const CacheStudyResult &study)
{
    TunePoint p;
    p.batchSize = batch_size;
    p.mpki = study.mpki();
    p.efficiency = study.simt.efficiency();
    return p;
}

TunePoint
probeBatchSize(const svc::Service &svc, int batch_size,
               const TunerConfig &cfg)
{
    return pointOf(batch_size,
                   studyRpuCache(svc, batch_size, profileStudy(cfg)));
}

TuneResult
chooseBatch(std::vector<TunePoint> points, const TunerConfig &cfg)
{
    simr_assert(!points.empty(), "no candidate batch sizes");

    TuneResult res;
    res.points = std::move(points);
    std::sort(res.points.begin(), res.points.end(),
              [](const TunePoint &a, const TunePoint &b) {
                  return a.batchSize < b.batchSize;
              });

    // The smallest batch establishes the MPKI floor the thrash test
    // compares against.
    double floor_mpki = res.points.front().mpki;
    for (auto &p : res.points) {
        p.acceptable =
            p.mpki <= cfg.thrashFactor * floor_mpki + cfg.mpkiSlack &&
            p.efficiency >= cfg.minEfficiency;

        // Largest acceptable batch wins.
        if (p.acceptable && p.batchSize > res.chosenBatch)
            res.chosenBatch = p.batchSize;
    }
    // Nothing fit the budget: fall back to the smallest candidate.
    if (res.chosenBatch == 0)
        res.chosenBatch = res.points.front().batchSize;
    return res;
}

TuneResult
tuneBatchSize(const svc::Service &svc, const TunerConfig &cfg)
{
    return chooseBatch(parallelMap(cfg.candidates, [&](int bs) {
        return probeBatchSize(svc, bs, cfg);
    }), cfg);
}

} // namespace simr::tune
