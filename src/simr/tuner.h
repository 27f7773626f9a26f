/**
 * @file
 * Offline batch-size tuning (paper Section III-B3).
 *
 * "As widely practiced by data center providers, an offline
 * configuration can be applied to tune the batch size for a particular
 * microservice." This is that configuration pass: sweep candidate
 * batch sizes, measure L1 MPKI and SIMT efficiency on a profiling
 * request sample, and pick the largest batch whose MPKI stays within a
 * budget -- the Fig. 15 rule (32 for most services, 8 for the
 * data-intensive leaves) derived automatically instead of by hand.
 */

#ifndef SIMR_SIMR_TUNER_H
#define SIMR_SIMR_TUNER_H

#include <vector>

#include "simr/cachestudy.h"

namespace simr::tune
{

/** Tuning knobs. */
struct TunerConfig
{
    std::vector<int> candidates = {32, 16, 8, 4};
    int profileRequests = 512;
    uint64_t seed = 42;
    uint64_t l1KB = 256;        ///< RPU L1 (Table IV)
    /**
     * A batch size is rejected when its MPKI blows up relative to the
     * smallest candidate (thrashing), not on an absolute bar: shared
     * read-mostly tables give middle tiers a batch-independent MPKI
     * floor that says nothing about footprint pressure.
     */
    double thrashFactor = 2.5;
    double mpkiSlack = 1.0;     ///< absolute slack for near-zero floors
    double minEfficiency = 0.5; ///< below this, bigger batches are moot

    bool operator==(const TunerConfig &) const = default;
};

/** Outcome for one candidate size. */
struct TunePoint
{
    int batchSize = 0;
    double mpki = 0;
    double efficiency = 0;
    bool acceptable = false;
};

/** Full tuning result. */
struct TuneResult
{
    int chosenBatch = 0;
    std::vector<TunePoint> points;
};

/** The RPU cache study that profiles every candidate batch size. */
CacheStudyOptions profileStudy(const TunerConfig &cfg);

/** One candidate's point: its study's L1 MPKI and SIMT efficiency. */
TunePoint pointOf(int batch_size, const CacheStudyResult &study);

/**
 * Profile one candidate batch size: one RPU cache study over the
 * profiling sample, whose lockstep run also gives the efficiency.
 */
TunePoint probeBatchSize(const svc::Service &svc, int batch_size,
                         const TunerConfig &cfg);

/**
 * Judge profiled candidates (any order, at least one) and pick the
 * largest acceptable batch. Points come back sorted by batch size.
 */
TuneResult chooseBatch(std::vector<TunePoint> points,
                       const TunerConfig &cfg);

/** Run the offline tuning pass for one service: probe every candidate
 *  in parallel, then chooseBatch. */
TuneResult tuneBatchSize(const svc::Service &svc,
                         const TunerConfig &cfg = TunerConfig());

} // namespace simr::tune

#endif // SIMR_SIMR_TUNER_H
