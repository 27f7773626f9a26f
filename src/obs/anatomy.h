/**
 * @file
 * Tail-latency anatomy: critical paths and per-bucket latency
 * decomposition of recorded request journeys (obs/journey.h), with an
 * optional chip-level link that splits batched-tier service time into
 * divergence and memory components measured by the lockstep engine.
 *
 * The decomposition is exact by construction: every gap between
 * consecutive journey events is assigned to exactly one bucket, so the
 * per-bucket tick counts of a request telescope to precisely its
 * end-to-end tick count. The chip link only moves integer ticks
 * between buckets (largest-remainder split), preserving the identity.
 *
 * The report aggregates two cohorts -- the median half and the slowest
 * percentile -- so `simr_cli anatomy` can answer "what grows when the
 * tail grows": p99 requests are typically dominated by batch-wait and
 * foreign reconvergence stalls, the median by service time.
 */

#ifndef SIMR_OBS_ANATOMY_H
#define SIMR_OBS_ANATOMY_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journey.h"
#include "simt/lockstep.h"

namespace simr::obs
{

class Registry;

/** Latency buckets of the anatomy decomposition. */
enum class Bucket : uint8_t {
    BatchWait,   ///< batch formation + foreign reconvergence stalls
    Queue,       ///< waiting for a busy tier server
    Service,     ///< tier service time (minus the chip-link share)
    Network,     ///< inter-tier hops and the final reply
    Divergence,  ///< chip-link: masked lane-slots in the request's batch
    Memory,      ///< chip-link: memory-op slots in the request's batch
};

constexpr int kNumBuckets = 6;

const char *bucketName(Bucket b);

/** Bucket the segment closed by an event of kind `s` lands in. */
Bucket bucketOf(JStage s);

/**
 * Chip-level attribution for the batched tier, distilled from lockstep
 * execution of the tier's service. Fractions are slot shares of the
 * batch issue budget (ops x width): masked slots for divergence,
 * active memory-op slots for memory; they are disjoint, so
 * divergenceFrac + memoryFrac <= 1.
 */
struct ChipLink
{
    int tier = -1;              ///< tier index the link applies to
    double divergenceFrac = 0;  ///< maskedSlots / (batchOps * width)
    double memoryFrac = 0;      ///< active mem-op slots / (batchOps * width)
};

/** One request's exact latency decomposition. */
struct RequestAnatomy
{
    uint64_t reqId = 0;
    uint64_t batchId = 0;
    int64_t e2eTicks = 0;
    int64_t ticks[kNumBuckets] = {};
    bool miss = false;
    bool orphan = false;
    bool blockedOnBatch = false;

    int64_t
    sumTicks() const
    {
        int64_t s = 0;
        for (int64_t t : ticks)
            s += t;
        return s;
    }
};

/**
 * Decompose one journey. With a chip link, the linked tier's service
 * ticks are split into {Divergence, Memory, residual Service} by a
 * largest-remainder integer split, so sumTicks() == e2eTicks always.
 */
RequestAnatomy decompose(const Journey &j, const ChipLink *link = nullptr);

/** One step of a request's critical path (a closed journey segment). */
struct CriticalStep
{
    int64_t fromTick = 0;
    int64_t toTick = 0;
    JStage kind = JStage::Arrival;  ///< event that closed the segment
    Bucket bucket = Bucket::Service;
    int8_t tier = -1;
    bool foreign = false;           ///< stalled behind another request

    int64_t ticks() const { return toTick - fromTick; }
};

/**
 * The request's critical path: its non-empty segments in time order.
 * For the linear causal chain a journey records, this is the unique
 * arrival-to-completion path; foreign steps are where the request was
 * blocked behind batch mates (the cross-request causal edges).
 */
std::vector<CriticalStep> criticalPath(const Journey &j);

/** Aggregate anatomy of one cohort of requests. */
struct CohortAnatomy
{
    size_t count = 0;
    int64_t e2eTicks = 0;             ///< sum over the cohort
    int64_t ticks[kNumBuckets] = {};  ///< sums over the cohort

    double meanE2eUs() const
    {
        return count ? journeyUs(e2eTicks) / static_cast<double>(count)
                     : 0.0;
    }

    /** Cohort share of bucket `b` in [0, 1]. */
    double share(Bucket b) const
    {
        return e2eTicks ? static_cast<double>(ticks[static_cast<int>(b)]) /
            static_cast<double>(e2eTicks) : 0.0;
    }
};

/**
 * The full drill-down: per-request decompositions plus median-vs-tail
 * cohort aggregates and the slowest request's critical path.
 */
struct AnatomyReport
{
    std::vector<RequestAnatomy> requests;  ///< sorted by e2e descending
    CohortAnatomy all;
    CohortAnatomy median;  ///< requests at or below the sampled p50
    CohortAnatomy tail;    ///< the slowest 1% (at least one request)
    std::vector<CriticalStep> slowestPath;  ///< critical path of the max
    uint64_t slowestReqId = 0;

    /** Human-readable cohort table + slowest critical path. */
    std::string table(const std::string &label) const;

    /** Machine-readable form (cohorts, buckets, per-request rows). */
    std::string json() const;
};

/** Build the report from a journey snapshot (chip link optional). */
AnatomyReport buildAnatomy(const std::vector<Journey> &journeys,
                           const ChipLink *link = nullptr);

/**
 * Per-batch chip-layer accounting: a LockstepObserver that measures,
 * for every batch, its issue-window span on the batch-op clock and its
 * slot breakdown (masked / memory / compute) -- the data that links a
 * journey's batch to its SIMT timeline (trace flow events) and feeds
 * ChipLink fractions.
 */
class BatchAnatomyRecorder : public simt::LockstepObserver
{
  public:
    struct Row
    {
        uint64_t batch = 0;
        int size = 0;
        uint64_t startOp = 0;       ///< opIdx at batch start
        uint64_t endOp = 0;         ///< opIdx at batch end
        uint64_t ops = 0;           ///< batch ops issued
        uint64_t scalarOps = 0;     ///< active lane-slots
        uint64_t maskedSlots = 0;   ///< idle lane-slots
        uint64_t memSlots = 0;      ///< active slots on memory ops
        uint64_t divergeEvents = 0;
    };

    void onBatchStart(uint64_t batch, int size, uint64_t opIdx) override;
    void onOp(const trace::DynOp &op, int width, uint64_t opIdx) override;
    void onDiverge(isa::Pc pc, uint64_t opIdx) override;
    void onBatchEnd(uint64_t batch, uint64_t opIdx) override;

    const std::vector<Row> &rows() const { return rows_; }

    /** ChipLink fractions aggregated over every recorded batch. */
    ChipLink link(int tier) const;

  private:
    std::vector<Row> rows_;
    bool open_ = false;
};

/**
 * Publish sys.journey.* metrics into `reg`: seen/kept counters, the
 * capture mode, and per-cohort mean bucket times in us.
 */
void recordJourneyMetrics(Registry *reg, const JourneyRecorder &rec,
                          const AnatomyReport &report);

} // namespace simr::obs

#endif // SIMR_OBS_ANATOMY_H
