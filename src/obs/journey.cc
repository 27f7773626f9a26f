#include "obs/journey.h"

#include <algorithm>
#include <bit>

#include "common/rng.h"

namespace simr::obs
{

namespace
{

/** Stable shard index for the calling thread (wraps past kMaxShards). */
int
journeyShardId()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace

const char *
journeyModeName(JourneyMode m)
{
    switch (m) {
      case JourneyMode::Off: return "off";
      case JourneyMode::Sampled: return "sampled";
      case JourneyMode::All: return "all";
    }
    return "?";
}

const char *
stageName(JStage s)
{
    switch (s) {
      case JStage::Arrival: return "arrival";
      case JStage::BatchFormed: return "batch-formed";
      case JStage::TierEnqueue: return "enqueue";
      case JStage::TierStart: return "service-start";
      case JStage::TierDone: return "service-done";
      case JStage::ReconvJoin: return "reconv-join";
      case JStage::Completion: return "completion";
      case JStage::CacheOutcome: return "cache-outcome";
      case JStage::SplitRetry: return "split-retry";
    }
    return "?";
}

JourneyRecorder::JourneyRecorder(JourneyMode mode, size_t capacity,
                                 uint64_t seed)
    : mode_(mode), capacity_(capacity ? capacity : 1), seed_(seed)
{}

JourneyRecorder::~JourneyRecorder()
{
    for (auto &s : shards_)
        delete s.load(std::memory_order_acquire);
}

JourneyRecorder::Shard &
JourneyRecorder::localShard()
{
    int idx = journeyShardId() % kMaxShards;
    Shard *s = shards_[idx].load(std::memory_order_acquire);
    if (!s) {
        auto *fresh = new Shard();
        if (shards_[idx].compare_exchange_strong(
                s, fresh, std::memory_order_acq_rel)) {
            s = fresh;
        } else {
            delete fresh;
        }
    }
    return *s;
}

JourneyRecorder::Cursor
JourneyRecorder::cursor()
{
    Cursor c;
    if (mode_ == JourneyMode::Off)
        return c;
    c.shard_ = &localShard();
    c.mode_ = mode_;
    c.seed_ = seed_;
    return c;
}

bool
JourneyRecorder::offer(uint64_t req_id, double e2e_us, uint64_t *key)
{
    Cursor c = cursor();
    c.beginGroup(1);
    return c.offer(req_id, e2e_us, key);
}

void
JourneyRecorder::admit(Journey &&j, uint64_t key)
{
    if (mode_ == JourneyMode::Off)
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lock(s.mu);
    if (mode_ == JourneyMode::All) {
        s.log.push_back(std::move(j));
        return;
    }
    auto by_key_min = [](const Entry &a, const Entry &b) {
        return a.key > b.key;   // min-heap on key
    };
    if (s.heap.size() >= capacity_) {
        if (key <= s.heap.front().key)
            return;             // spurious accept at the threshold; drop
        std::pop_heap(s.heap.begin(), s.heap.end(), by_key_min);
        s.heap.pop_back();
    }
    s.heap.push_back({key, std::move(j)});
    std::push_heap(s.heap.begin(), s.heap.end(), by_key_min);
    if (s.heap.size() >= capacity_)
        s.threshold.store(s.heap.front().key,
                          std::memory_order_relaxed);
}

uint64_t
JourneyRecorder::seen() const
{
    uint64_t n = 0;
    for (const auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (s)
            n += s->seen.load(std::memory_order_relaxed);
    }
    return n;
}

uint64_t
JourneyRecorder::kept() const
{
    uint64_t n = 0;
    for (const auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        std::lock_guard<std::mutex> lock(s->mu);
        n += s->heap.size() + s->log.size();
    }
    return n;
}

std::vector<Journey>
JourneyRecorder::snapshot() const
{
    std::vector<Entry> entries;
    std::vector<Journey> out;
    for (const auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        std::lock_guard<std::mutex> lock(s->mu);
        for (const auto &e : s->heap)
            entries.push_back(e);
        for (const auto &j : s->log)
            out.push_back(j);
    }
    if (mode_ == JourneyMode::Sampled) {
        // Global top-K by key. Every global top-K member survives its
        // own shard's local top-K, so the union always contains the
        // global winners and the result is shard-layout independent.
        std::sort(entries.begin(), entries.end(),
                  [](const Entry &a, const Entry &b) {
                      if (a.key != b.key)
                          return a.key > b.key;
                      return a.journey.reqId < b.journey.reqId;
                  });
        if (entries.size() > capacity_)
            entries.resize(capacity_);
        out.reserve(entries.size());
        for (auto &e : entries)
            out.push_back(std::move(e.journey));
    }
    std::sort(out.begin(), out.end(),
              [](const Journey &a, const Journey &b) {
                  return a.reqId < b.reqId;
              });
    return out;
}

void
JourneyRecorder::clear()
{
    for (auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        std::lock_guard<std::mutex> lock(s->mu);
        s->heap.clear();
        s->log.clear();
        s->seen.store(0, std::memory_order_relaxed);
        s->threshold.store(0, std::memory_order_relaxed);
    }
}

} // namespace simr::obs
