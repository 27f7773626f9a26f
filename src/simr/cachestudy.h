/**
 * @file
 * Functional cache studies for Figs. 14 and 15: run the address stream
 * (after batching / MCU coalescing / stack interleaving) through an L1
 * model without full pipeline timing, to measure generated traffic and
 * MPKI quickly and in isolation.
 */

#ifndef SIMR_SIMR_CACHESTUDY_H
#define SIMR_SIMR_CACHESTUDY_H

#include "mem/coalescer.h"
#include "services/service.h"
#include "simt/lockstep.h"

namespace simr
{

/** Outcome of one cache study. */
struct CacheStudyResult
{
    /**
     * The run's lockstep statistics (RPU study); a CPU study fills only
     * scalarOps, its instruction count.
     */
    simt::SimtStats simt;
    uint64_t laneAccesses = 0;  ///< memory requests before coalescing
    uint64_t l1Accesses = 0;    ///< L1 accesses after the MCU
    uint64_t l1Misses = 0;
    mem::McuStats mcu;

    /** Misses per kilo (scalar) instruction. */
    double
    mpki() const
    {
        return simt.scalarOps ? 1000.0 * static_cast<double>(l1Misses) /
            static_cast<double>(simt.scalarOps) : 0.0;
    }
};

/** Options for cache studies. */
struct CacheStudyOptions
{
    int requests = 640;
    uint64_t seed = 42;
    uint64_t l1KB = 256;           ///< RPU default (Table IV)

    bool operator==(const CacheStudyOptions &) const = default;
};

/**
 * RPU-style study: a measureEfficiency run (per-API+arg-size batches,
 * MinSP-PC, SIMR-aware allocator) whose every batch op goes through the
 * MCU, with stack interleaving, and a banked L1.
 */
CacheStudyResult studyRpuCache(const svc::Service &svc, int batch_size,
                               const CacheStudyOptions &opt);

/** CPU-style study: one thread at a time through a private L1. */
CacheStudyResult studyCpuCache(const svc::Service &svc,
                               const CacheStudyOptions &opt);

} // namespace simr

#endif // SIMR_SIMR_CACHESTUDY_H
