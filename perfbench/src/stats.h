/**
 * @file
 * Canonical serialization of every simulated statistic into a Digest,
 * shared by the sim_digest and the traced run's identity check.
 *
 * Excluded on purpose, because they describe how the simulator ran
 * rather than what it simulated: CoreResult::skippedCycles/skipJumps
 * (event-loop diagnostics) and SimtStats::hintedKernelBatches/
 * hintViolations (replay-kernel and static-proof diagnostics), and
 * ClusterResult::pdes (engine diagnostics that vary with sharding).
 */

#ifndef SIMR_PERFBENCH_STATS_H
#define SIMR_PERFBENCH_STATS_H

#include "perfbench.h"

#include "simr/runner.h"
#include "sys/cluster.h"

namespace perfbench
{

void addHistogram(Digest &d, const simr::Histogram &h);
void addCore(Digest &d, const simr::core::CoreResult &c);
void addEnergy(Digest &d, const simr::energy::EnergyBreakdown &e);
void addSimt(Digest &d, const simr::simt::SimtStats &s);
void addSys(Digest &d, const simr::sys::SysResult &r);
void addCluster(Digest &d, const simr::sys::ClusterResult &r);

/** Digest of one chip cell (core + energy + SIMT). */
uint64_t chipDigest(const simr::TimingRun &r);

/**
 * Bit-identity of two chip cells over every simulated statistic,
 * including the exact latency-histogram sample multiset.
 */
bool sameChip(const simr::TimingRun &a, const simr::TimingRun &b);

/**
 * The chip checks: every issued request retires, the latency
 * histogram counts every completed request, energy is finite and
 * positive.
 */
void checkChip(Checks &c, const std::string &cell, const simr::TimingRun &r,
               uint64_t issued);

} // namespace perfbench

#endif // SIMR_PERFBENCH_STATS_H
