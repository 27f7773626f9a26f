/**
 * @file
 * Per-request causal journeys: the tail-latency observability layer of
 * the system simulator.
 *
 * Every simulated request can accumulate a compact event log -- arrival,
 * batch formation, per-tier enqueue/start/done, memcached hit/miss,
 * batch split/retry, reconvergence stalls, completion -- with causal
 * parent edges (each event's parent is the previous event of the same
 * request; cross-request causes such as "blocked at the reconvergence
 * point behind a batch mate's storage visit" are flagged foreign and
 * carry the causing batch id). The anatomy engine (obs/anatomy.h) turns
 * these journeys into critical paths and per-bucket latency
 * decompositions.
 *
 * Exactness: event times are recorded in integer ticks of 2^-10 us
 * (~0.98 ns). Segment durations are differences of consecutive event
 * ticks, so the per-bucket decomposition of a journey telescopes to
 * exactly its end-to-end tick count -- an integer identity asserted by
 * tests, immune to floating-point reassociation.
 *
 * Selection: capture happens after the run, on one thread. Every
 * completed request gets a latency-biased sampling key (A-ES weighted
 * reservoir sampling: key = latency / Exp(1), deterministic per reqId)
 * and Sampled mode builds the event log of only the top-`capacity`
 * requests by key. All mode (`simr_cli anatomy --mode all`) captures
 * every request for deep drill-downs.
 *
 * Determinism: sampling keys depend only on (reqId, latency, seed), so
 * the sampled set is identical at any thread or shard count. Recording
 * never perturbs the simulation: the recorder draws nothing from the
 * scenario's Rng and SysResult is bit-identical with journeys off,
 * sampled or full (ctest journey_determinism_gate).
 */

#ifndef SIMR_OBS_JOURNEY_H
#define SIMR_OBS_JOURNEY_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace simr::obs
{

/** Journey capture mode (`simr_cli anatomy --mode off|sampled|all`). */
enum class JourneyMode : uint8_t {
    Off,      ///< recorder inert, zero per-request work
    Sampled,  ///< latency-biased reservoir (the always-on default)
    All,      ///< full capture of every request (debug drill-downs)
};

const char *journeyModeName(JourneyMode m);

/** Journey time base: integer ticks of 2^-10 us. */
constexpr double kJourneyTicksPerUs = 1024.0;

inline int64_t
journeyTicks(double us)
{
    return static_cast<int64_t>(std::llround(us * kJourneyTicksPerUs));
}

inline double
journeyUs(int64_t ticks)
{
    return static_cast<double>(ticks) / kJourneyTicksPerUs;
}

/**
 * Event kinds. Every non-instant kind closes the segment since the
 * previous event; the kind decides which latency bucket (anatomy.h)
 * that segment lands in.
 */
enum class JStage : uint8_t {
    Arrival,      ///< request entered the system (opens the journey)
    BatchFormed,  ///< its batch emitted            (closes: batch-wait)
    TierEnqueue,  ///< arrived at a tier            (closes: network hop)
    TierStart,    ///< tier began service           (closes: queueing)
    TierDone,     ///< tier finished service        (closes: service)
    ReconvJoin,   ///< unsplit batch rejoined       (closes: batch-wait,
                  ///  foreign: caused by a batch mate's slow path)
    Completion,   ///< reply delivered              (closes: network hop)
    CacheOutcome, ///< instant: memcached hit/miss (aux: 1 = miss)
    SplitRetry,   ///< instant: split orphan re-executes alone
};

const char *stageName(JStage s);

/** One journey event. 24 bytes; `parent` edges are implicit (previous
 *  event of the same journey) except where `foreign` marks a
 *  cross-request cause identified by `aux` (the causing batch id). */
struct JourneyEvent
{
    int64_t tick = 0;       ///< event time in 2^-10 us ticks
    uint64_t aux = 0;       ///< kind-specific payload (batch id, miss flag)
    JStage kind = JStage::Arrival;
    int8_t tier = -1;       ///< tier index for Tier* kinds, -1 otherwise
    bool foreign = false;   ///< segment caused by another request
};

/** One request's causal journey through the cluster. */
struct Journey
{
    uint64_t reqId = 0;
    uint64_t batchId = 0;
    uint32_t batchSize = 0;
    bool miss = false;            ///< visited storage (memcached miss)
    bool orphan = false;          ///< re-executed alone after a split
    bool blockedOnBatch = false;  ///< stalled at a reconvergence point
    std::vector<JourneyEvent> events;  ///< causal chain, time-ordered

    int64_t arrivalTick() const
    {
        return events.empty() ? 0 : events.front().tick;
    }

    int64_t completionTick() const
    {
        return events.empty() ? 0 : events.back().tick;
    }

    /** End-to-end latency in ticks (the decomposition's exact total). */
    int64_t e2eTicks() const { return completionTick() - arrivalTick(); }

    double e2eUs() const { return journeyUs(e2eTicks()); }
};

/**
 * Latency-biased journey reservoir, filled once per run.
 *
 * The engine hands a finished run to capture(); the recorder picks
 * which requests to keep and asks the engine to build only those
 * journeys. Single-threaded: capture() runs on the caller's thread
 * after the simulation.
 */
class JourneyRecorder
{
  public:
    /**
     * @param mode      capture mode
     * @param capacity  reservoir size; ignored in All mode
     * @param seed      sampling-key salt (deterministic per reqId)
     */
    explicit JourneyRecorder(JourneyMode mode, size_t capacity = 512,
                             uint64_t seed = 0x1009e5);
    JourneyRecorder(const JourneyRecorder &) = delete;
    JourneyRecorder &operator=(const JourneyRecorder &) = delete;

    JourneyMode mode() const { return mode_; }
    size_t capacity() const { return capacity_; }

    /**
     * Capture one run's journeys; a run replaces whatever the recorder
     * held before.
     *
     * `for_each(visit)` must call `visit(reqId, e2eUs, tag)` once for
     * every completed request; `build(reqId, tag)` returns the Journey
     * of one request the recorder keeps (`tag` is the caller's, passed
     * through unchanged). Off mode builds nothing and counts nothing.
     * All mode builds every request. Sampled mode builds the
     * `capacity` requests with the largest keyFor(reqId, e2eUs, seed),
     * ties going to the smaller reqId, so the kept set depends only on
     * the population, not on the visiting order.
     */
    template <class ForEach, class Build>
    void capture(ForEach &&for_each, Build &&build);

    /** Requests visited by the last capture (kept or not). */
    uint64_t seen() const { return seen_; }

    /** Journeys held. */
    uint64_t kept() const { return journeys_.size(); }

    /** The kept journeys, sorted by reqId. */
    std::vector<Journey> snapshot() const { return journeys_; }

    void clear();

    /** Deterministic A-ES sampling key for (reqId, latency): Sampled
     *  mode keeps the requests with the largest keys. */
    static uint64_t keyFor(uint64_t req_id, double e2e_us,
                           uint64_t seed)
    {
        // A-ES weighted reservoir key: score = weight / Exp(1), with
        // the exponential variate derived from a stateless hash of the
        // request identity -- the decision depends only on (reqId,
        // latency, seed), never on thread scheduling or arrival order.
        //
        // -ln(u) is approximated by the classic bit-level linear-log
        // trick: reading the raw bits of a positive double as an
        // integer gives a piecewise-linear, strictly monotone
        // approximation of log2 (max error ~0.09), plenty for a
        // sampling variate.
        double u = uniformFor(req_id, seed);
        double log2u = static_cast<double>(std::bit_cast<uint64_t>(u)) *
                           0x1.0p-52 -
                       1023.0;
        double e = -log2u * 0.6931471805599453; // ~ -ln(u) >= 0
        if (e < 0x1.0p-60)
            e = 0x1.0p-60;
        double score = e2e_us / e;
        // Order-preserving map of a non-negative double to key space.
        return std::bit_cast<uint64_t>(score);
    }

  private:
    /** Single-multiply stateless mix (Fibonacci hashing, not full
     *  mix64). Only the top 53 bits are consumed, and the top bits of
     *  an odd-constant product are well distributed -- for sequential
     *  request ids they behave like a low-discrepancy sequence, which
     *  is if anything better coverage for a sampling variate than
     *  i.i.d. uniforms. */
    static uint64_t hashFor(uint64_t req_id, uint64_t seed)
    {
        return (req_id ^ seed) * 0x9e3779b97f4a7c15ULL;
    }

    /** Deterministic uniform variate in (0, 1] for a request id. */
    static double uniformFor(uint64_t req_id, uint64_t seed)
    {
        uint64_t h = hashFor(req_id, seed);
        return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
    }

    JourneyMode mode_;
    size_t capacity_;
    uint64_t seed_;
    uint64_t seen_ = 0;
    std::vector<Journey> journeys_;  ///< sorted by reqId
};

template <class ForEach, class Build>
void
JourneyRecorder::capture(ForEach &&for_each, Build &&build)
{
    clear();
    if (mode_ == JourneyMode::All) {
        for_each([&](uint64_t req_id, double, uint64_t tag) {
            ++seen_;
            journeys_.push_back(build(req_id, tag));
        });
    } else if (mode_ == JourneyMode::Sampled) {
        struct Candidate
        {
            uint64_t key;
            uint64_t reqId;
            uint64_t tag;
        };
        // A heap under "ranks higher" keeps its lowest-ranked
        // candidate at the front, ready to be evicted.
        auto ranks_higher = [](const Candidate &a, const Candidate &b) {
            return a.key != b.key ? a.key > b.key : a.reqId < b.reqId;
        };
        std::vector<Candidate> heap;
        heap.reserve(capacity_);
        uint64_t seen = 0;
        uint64_t floor = 0;  // the front's key once the heap is full
        for_each([&](uint64_t req_id, double e2e_us, uint64_t tag) {
            ++seen;
            Candidate c{keyFor(req_id, e2e_us, seed_), req_id, tag};
            if (c.key < floor)
                return;
            if (heap.size() == capacity_) {
                if (!ranks_higher(c, heap.front()))
                    return;
                std::pop_heap(heap.begin(), heap.end(), ranks_higher);
                heap.pop_back();
            }
            heap.push_back(c);
            std::push_heap(heap.begin(), heap.end(), ranks_higher);
            if (heap.size() == capacity_)
                floor = heap.front().key;
        });
        seen_ = seen;
        journeys_.reserve(heap.size());
        for (const Candidate &c : heap)
            journeys_.push_back(build(c.reqId, c.tag));
    }
    std::sort(journeys_.begin(), journeys_.end(),
              [](const Journey &a, const Journey &b) {
                  return a.reqId < b.reqId;
              });
}

} // namespace simr::obs

#endif // SIMR_OBS_JOURNEY_H
