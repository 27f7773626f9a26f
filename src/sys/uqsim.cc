#include "sys/uqsim.h"

#include "common/logging.h"
#include "sys/cluster.h"

namespace simr::sys
{

void
SysConfig::validate() const
{
    simr_assert(qps > 0, "sys qps must be positive");
    simr_assert(requests >= 1, "sys requests must be >= 1");
    simr_assert(batchSize >= 1, "sys batchSize must be >= 1");
    simr_assert(batchTimeoutUs >= 0,
                "sys batchTimeoutUs must be non-negative");
    simr_assert(rpuThroughputScale > 0 && rpuLatencyScale > 0,
                "sys RPU scales must be positive");
    simr_assert(orphanPenalty >= 1,
                "sys orphanPenalty must be >= 1 (a capacity factor)");
    simr_assert(webSvcUs > 0 && userSvcUs > 0 && mcrouterSvcUs > 0 &&
                    memcSvcUs > 0 && storageSvcUs > 0,
                "sys tier service latencies must be positive");
    simr_assert(netUs >= 0, "sys netUs must be non-negative");
    simr_assert(webCores >= 1 && userCores >= 1 && mcrouterCores >= 1 &&
                    memcCores >= 1,
                "sys tier capacities must be >= 1 core");
    simr_assert(memcHitRate >= 0 && memcHitRate <= 1,
                "sys memcHitRate must be a probability");
}

SysResult
runUserScenario(const SysConfig &cfg)
{
    return runClusterSequential(singleGraphCluster(cfg)).sys;
}

} // namespace simr::sys
