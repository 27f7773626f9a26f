#include "sys/pdes.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>

#include "common/logging.h"
#include "common/parallel.h"

namespace simr::sys
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** std::priority_queue is a max-heap; invert eventBefore for min. */
struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        return eventBefore(b, a);
    }
};

using EventHeap =
    std::priority_queue<Event, std::vector<Event>, EventAfter>;

/**
 * Sequential reference engine: pop in (time, key) order. The initial
 * population is sorted once and merged with a heap holding only the
 * emitted events, so a run never pays a heap push and pop per initial
 * event. Keys are unique, so the pop order is exactly the single-heap
 * order.
 */
PdesStats
runSequential(Model &m, std::vector<Event> initial)
{
    m.prepare(1, 1);

    struct SeqSink : EventSink
    {
        EventHeap heap;
        void emit(const Event &ev) override { heap.push(ev); }
    } sink;
    std::sort(initial.begin(), initial.end(), eventBefore);

    PdesStats stats;
    size_t next = 0;
    while (next < initial.size() || !sink.heap.empty()) {
        Event ev;
        if (next < initial.size() &&
            (sink.heap.empty() ||
             eventBefore(initial[next], sink.heap.top()))) {
            ev = initial[next++];
        } else {
            ev = sink.heap.top();
            sink.heap.pop();
        }
        ++stats.events;
        m.apply(ev, sink, 0);
    }
    return stats;
}

/** One shard: local heap plus per-source mailboxes (ring + spill). */
struct Shard
{
    EventHeap heap;

    /** Inbound mailboxes, one per source shard. Ring pushes are
     *  lock-free; a full ring spills into `spill`, written by the
     *  source worker before the window barrier and drained by this
     *  shard's worker after it (the barrier publishes the writes). */
    std::vector<std::unique_ptr<SpscRing<Event>>> rings;
    std::vector<std::vector<Event>> spill;

    uint64_t events = 0;
    uint64_t sends = 0;
    uint64_t overflows = 0;
};

/** Worker-side emit routing for one shard being processed. */
class ShardSink : public EventSink
{
  public:
    ShardSink(std::vector<Shard> &shards, int src, int nshards,
              double window_end)
        : shards_(shards), src_(src), nshards_(nshards),
          windowEnd_(window_end)
    {
    }

    void
    emit(const Event &ev) override
    {
        int dst = shardOfNode(ev.node, nshards_);
        if (dst == src_) {
            shards_[static_cast<size_t>(src_)].heap.push(ev);
            return;
        }
        // Conservative-lookahead contract: anything crossing a shard
        // boundary must land at or beyond the current window's end.
        simr_assert(ev.time >= windowEnd_,
                    "cross-shard event inside the lookahead window");
        Shard &s = shards_[static_cast<size_t>(src_)];
        Shard &d = shards_[static_cast<size_t>(dst)];
        ++s.sends;
        if (!d.rings[static_cast<size_t>(src_)]->push(ev)) {
            // Bounded-mailbox backpressure: spill to the per-edge
            // overflow vector (drained at the next barrier) and count
            // it. Delivery order is irrelevant -- the destination
            // re-sorts into its heap -- so the spill changes nothing
            // but the transport.
            d.spill[static_cast<size_t>(src_)].push_back(ev);
            ++s.overflows;
        }
    }

  private:
    std::vector<Shard> &shards_;
    int src_;
    int nshards_;
    double windowEnd_;
};

} // namespace

PdesStats
runPdes(Model &m, std::vector<Event> initial, const PdesConfig &cfg)
{
    simr_assert(cfg.shards >= 1, "PDES shard count must be >= 1");
    simr_assert(cfg.mailboxCapacity >= 1,
                "PDES mailbox capacity must be >= 1");
    int nshards = cfg.shards;
    // Zero lookahead admits no conservative window: degenerate to the
    // sequential engine rather than to an incorrect parallel one.
    if (cfg.lookaheadUs <= 0)
        nshards = 1;
    if (nshards == 1)
        return runSequential(m, std::move(initial));

    int workers = std::max(1, std::min(cfg.threads, nshards));
    m.prepare(nshards, workers);

    std::vector<Shard> shards(static_cast<size_t>(nshards));
    for (Shard &s : shards) {
        s.rings.reserve(static_cast<size_t>(nshards));
        for (int i = 0; i < nshards; ++i)
            s.rings.push_back(std::make_unique<SpscRing<Event>>(
                static_cast<size_t>(cfg.mailboxCapacity)));
        s.spill.resize(static_cast<size_t>(nshards));
    }
    for (const Event &ev : initial)
        shards[static_cast<size_t>(shardOfNode(ev.node, nshards))]
            .heap.push(ev);
    initial.clear();

    // Window-loop shared state. localMin is written by each worker
    // before barrier A and reduced by worker 0 between barriers A and
    // B; windowEnd is read by everyone after barrier B.
    std::vector<double> localMin(static_cast<size_t>(workers), kInf);
    double windowEnd = 0;
    bool done = false;
    uint64_t windows = 0;
    SpinBarrier barrier(workers);

    auto workerLoop = [&](int w) {
        for (;;) {
            // Phase A: drain inbound mail into owned heaps (the
            // previous window's barrier published it), then publish
            // this worker's earliest pending event time.
            double lmin = kInf;
            for (int s = w; s < nshards; s += workers) {
                Shard &sh = shards[static_cast<size_t>(s)];
                Event ev;
                for (int src = 0; src < nshards; ++src) {
                    while (sh.rings[static_cast<size_t>(src)]->pop(&ev))
                        sh.heap.push(ev);
                    auto &spill = sh.spill[static_cast<size_t>(src)];
                    for (const Event &e : spill)
                        sh.heap.push(e);
                    spill.clear();
                }
                if (!sh.heap.empty())
                    lmin = std::min(lmin, sh.heap.top().time);
            }
            localMin[static_cast<size_t>(w)] = lmin;
            barrier.arriveAndWait();

            // Phase B: worker 0 reduces the global minimum (exact:
            // min over doubles is order-free) and opens the window.
            if (w == 0) {
                double gmin = kInf;
                for (double v : localMin)
                    gmin = std::min(gmin, v);
                done = gmin == kInf;
                windowEnd = gmin + cfg.lookaheadUs;
                if (!done)
                    ++windows;
            }
            barrier.arriveAndWait();
            if (done)
                return;

            // Phase C: process every owned event inside the window in
            // (time, key) order. Local emits may re-enter the heap and
            // still be processed this window; cross-shard emits travel
            // by mailbox and are only visible after the next barrier.
            for (int s = w; s < nshards; s += workers) {
                Shard &sh = shards[static_cast<size_t>(s)];
                ShardSink sink(shards, s, nshards, windowEnd);
                while (!sh.heap.empty() &&
                       sh.heap.top().time < windowEnd) {
                    Event ev = sh.heap.top();
                    sh.heap.pop();
                    ++sh.events;
                    m.apply(ev, sink, s);
                }
            }
            barrier.arriveAndWait();
        }
    };

    if (workers == 1) {
        workerLoop(0);
    } else {
        ThreadPool pool(workers);
        for (int w = 0; w < workers; ++w)
            pool.run([&, w] { workerLoop(w); });
        pool.wait();
    }

    PdesStats stats;
    stats.shards = nshards;
    stats.workers = workers;
    stats.windows = windows;
    for (const Shard &s : shards) {
        stats.events += s.events;
        stats.mailboxSends += s.sends;
        stats.mailboxOverflows += s.overflows;
    }
    return stats;
}

} // namespace simr::sys
