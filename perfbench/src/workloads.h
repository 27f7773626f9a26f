/**
 * @file
 * The three workloads' inputs, shared by the untraced passes and the
 * traced run so both simulate exactly the same cells.
 */

#ifndef SIMR_PERFBENCH_WORKLOADS_H
#define SIMR_PERFBENCH_WORKLOADS_H

#include <memory>

#include "perfbench.h"

#include "services/service.h"
#include "simr/runner.h"
#include "simr/tuner.h"
#include "sys/cluster.h"

namespace perfbench
{

/** chip_sweep: every service x {cpu, smt8, rpu, gpu}. */
std::vector<simr::Cell> chipCells(const PassSpec &spec);

/** One front-end SIMT-efficiency probe of design_sweep. */
struct Probe
{
    size_t service = 0;   ///< index into the built services
    simr::batch::Policy policy = simr::batch::Policy::PerApiArgSize;
    simr::simt::ReconvPolicy reconv = simr::simt::ReconvPolicy::MinSpPc;
    int width = 32;
};

/**
 * design_sweep's Fig. 4/11 probes: 3 batching policies x 2
 * reconvergence schemes at width 32, for every service.
 */
std::vector<Probe> designProbes(size_t services);

/** The batch-size tuner's configuration for one service. */
simr::tune::TunerConfig tunerConfig(const PassSpec &spec,
                                    const std::string &service);

/** One Fig. 22 load point. */
struct ScenarioPoint
{
    std::string system;   ///< cpu | rpu_split | rpu_nosplit
    double kqps = 0;
    simr::sys::SysConfig cfg;
};

/** cluster's Fig. 22 QPS grid. */
std::vector<ScenarioPoint> scenarioGrid(const PassSpec &spec);

/** cluster's datacenter-scale runCluster cell. */
simr::sys::ClusterConfig clusterCell(const PassSpec &spec);

/** Build every registered service and gate + prove its program. */
std::vector<std::unique_ptr<simr::svc::Service>> buildServices();

/** Fig. 22 QoS limit on p99 latency (microseconds). */
constexpr double kQosP99Us = 2500;

/**
 * Output checks, digest, simulated totals and headline ratios of each
 * workload, shared by the untraced and traced passes.
 */
void finishChip(const PassSpec &spec, const std::vector<simr::Cell> &cells,
                const std::vector<simr::TimingRun> &runs, PassResult &out);
void finishDesign(const PassSpec &spec,
                  const std::vector<std::unique_ptr<simr::svc::Service>>
                      &services,
                  const std::vector<simr::tune::TuneResult> &tuned,
                  const std::vector<Probe> &probes,
                  const std::vector<simr::simt::SimtStats> &probeStats,
                  PassResult &out);
void finishCluster(const PassSpec &spec,
                   const std::vector<ScenarioPoint> &grid,
                   const std::vector<simr::sys::SysResult> &points,
                   const simr::sys::ClusterConfig &cellCfg,
                   const simr::sys::ClusterResult &cell, PassResult &out);

} // namespace perfbench

#endif // SIMR_PERFBENCH_WORKLOADS_H
