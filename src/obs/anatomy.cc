#include "obs/anatomy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace simr::obs
{

const char *
bucketName(Bucket b)
{
    switch (b) {
      case Bucket::BatchWait: return "batch-wait";
      case Bucket::Queue: return "queue";
      case Bucket::Service: return "service";
      case Bucket::Network: return "network";
      case Bucket::Divergence: return "divergence";
      case Bucket::Memory: return "memory";
    }
    return "?";
}

Bucket
bucketOf(JStage s)
{
    switch (s) {
      case JStage::BatchFormed: return Bucket::BatchWait;
      case JStage::ReconvJoin: return Bucket::BatchWait;
      case JStage::TierEnqueue: return Bucket::Network;
      case JStage::TierStart: return Bucket::Queue;
      case JStage::TierDone: return Bucket::Service;
      case JStage::Completion: return Bucket::Network;
      // Instants are recorded at the previous event's tick; any
      // (zero-length) segment they close is service-side bookkeeping.
      case JStage::Arrival:
      case JStage::CacheOutcome:
      case JStage::SplitRetry: return Bucket::Service;
    }
    return Bucket::Service;
}

RequestAnatomy
decompose(const Journey &j, const ChipLink *link)
{
    RequestAnatomy a;
    a.reqId = j.reqId;
    a.batchId = j.batchId;
    a.e2eTicks = j.e2eTicks();
    a.miss = j.miss;
    a.orphan = j.orphan;
    a.blockedOnBatch = j.blockedOnBatch;

    int64_t linked_service = 0;  // Service ticks on the chip-linked tier
    for (size_t k = 1; k < j.events.size(); ++k) {
        const JourneyEvent &e = j.events[k];
        int64_t seg = e.tick - j.events[k - 1].tick;
        Bucket b = bucketOf(e.kind);
        a.ticks[static_cast<int>(b)] += seg;
        if (link && b == Bucket::Service && e.tier == link->tier)
            linked_service += seg;
    }

    if (link && linked_service > 0) {
        // Move integer ticks out of Service; round-half-up keeps the
        // pair within the segment, so the telescoped sum is untouched.
        auto slice = [linked_service](double frac, int64_t ceil_left) {
            int64_t t = static_cast<int64_t>(std::llround(
                static_cast<double>(linked_service) * frac));
            t = std::max<int64_t>(0, std::min(t, ceil_left));
            return t;
        };
        int64_t d = slice(link->divergenceFrac, linked_service);
        int64_t m = slice(link->memoryFrac, linked_service - d);
        a.ticks[static_cast<int>(Bucket::Service)] -= d + m;
        a.ticks[static_cast<int>(Bucket::Divergence)] += d;
        a.ticks[static_cast<int>(Bucket::Memory)] += m;
    }
    return a;
}

std::vector<CriticalStep>
criticalPath(const Journey &j)
{
    std::vector<CriticalStep> path;
    for (size_t k = 1; k < j.events.size(); ++k) {
        const JourneyEvent &e = j.events[k];
        int64_t from = j.events[k - 1].tick;
        if (e.tick == from)
            continue;
        CriticalStep s;
        s.fromTick = from;
        s.toTick = e.tick;
        s.kind = e.kind;
        s.bucket = bucketOf(e.kind);
        s.tier = e.tier;
        s.foreign = e.foreign;
        path.push_back(s);
    }
    return path;
}

namespace
{

void
accumulate(CohortAnatomy &c, const RequestAnatomy &a)
{
    ++c.count;
    c.e2eTicks += a.e2eTicks;
    for (int b = 0; b < kNumBuckets; ++b)
        c.ticks[b] += a.ticks[b];
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/**
 * Exact decimal rendering of a tick count in us. ticks / 1024 is
 * dyadic with at most 10 fractional decimal digits, so %.10f prints
 * the value exactly and the per-request JSON buckets sum to e2e_us in
 * decimal too, not only in ticks. Trailing zeros are trimmed.
 */
std::string
fmtTicksUs(int64_t ticks)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10f", journeyUs(ticks));
    std::string s = buf;
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.')
        ++last;   // keep one digit after the point
    s.resize(last + 1);
    return s;
}

} // namespace

AnatomyReport
buildAnatomy(const std::vector<Journey> &journeys, const ChipLink *link)
{
    AnatomyReport r;
    r.requests.reserve(journeys.size());
    for (const Journey &j : journeys)
        r.requests.push_back(decompose(j, link));
    std::sort(r.requests.begin(), r.requests.end(),
              [](const RequestAnatomy &a, const RequestAnatomy &b) {
                  if (a.e2eTicks != b.e2eTicks)
                      return a.e2eTicks > b.e2eTicks;
                  return a.reqId < b.reqId;
              });
    size_t n = r.requests.size();
    if (!n)
        return r;

    // Cohorts over the sampled set: the slowest 1% (>= 1 request) vs
    // the median half (the fastest floor(n/2)+ requests).
    size_t tail_n = std::max<size_t>(1, (n + 99) / 100);
    size_t median_from = n - (n + 1) / 2;
    for (size_t i = 0; i < n; ++i) {
        accumulate(r.all, r.requests[i]);
        if (i < tail_n)
            accumulate(r.tail, r.requests[i]);
        if (i >= median_from)
            accumulate(r.median, r.requests[i]);
    }

    r.slowestReqId = r.requests.front().reqId;
    for (const Journey &j : journeys) {
        if (j.reqId == r.slowestReqId) {
            r.slowestPath = criticalPath(j);
            break;
        }
    }
    return r;
}

std::string
AnatomyReport::table(const std::string &label) const
{
    std::string out;
    out += "anatomy: " + label + " (" + std::to_string(requests.size()) +
           " sampled requests)\n";
    if (requests.empty())
        return out;

    char line[256];
    std::snprintf(line, sizeof line, "  %-12s %10s %10s %8s %8s\n",
                  "bucket", "median_us", "tail_us", "med_%", "tail_%");
    out += line;
    for (int b = 0; b < kNumBuckets; ++b) {
        Bucket bb = static_cast<Bucket>(b);
        double med_us = median.count
            ? journeyUs(median.ticks[b]) / static_cast<double>(median.count)
            : 0.0;
        double tail_us = tail.count
            ? journeyUs(tail.ticks[b]) / static_cast<double>(tail.count)
            : 0.0;
        std::snprintf(line, sizeof line,
                      "  %-12s %10.1f %10.1f %7.1f%% %7.1f%%\n",
                      bucketName(bb), med_us, tail_us,
                      median.share(bb) * 100.0, tail.share(bb) * 100.0);
        out += line;
    }
    std::snprintf(line, sizeof line, "  %-12s %10.1f %10.1f\n", "e2e",
                  median.meanE2eUs(), tail.meanE2eUs());
    out += line;

    out += "  critical path of slowest request #" +
           std::to_string(slowestReqId) + ":\n";
    for (const CriticalStep &s : slowestPath) {
        std::snprintf(line, sizeof line,
                      "    [%9.1f .. %9.1f us] %-13s %-10s tier=%d%s\n",
                      journeyUs(s.fromTick), journeyUs(s.toTick),
                      stageName(s.kind), bucketName(s.bucket),
                      static_cast<int>(s.tier),
                      s.foreign ? "  (foreign: blocked on batch mate)"
                                : "");
        out += line;
    }
    return out;
}

std::string
AnatomyReport::json() const
{
    auto cohort = [](const CohortAnatomy &c) {
        std::string s = "{\"count\":" + std::to_string(c.count) +
            ",\"mean_e2e_us\":" + fmt("%.4f", c.meanE2eUs()) +
            ",\"buckets_us\":{";
        for (int b = 0; b < kNumBuckets; ++b) {
            double us = c.count
                ? journeyUs(c.ticks[b]) / static_cast<double>(c.count)
                : 0.0;
            s += std::string("\"") + bucketName(static_cast<Bucket>(b)) +
                 "\":" + fmt("%.4f", us);
            if (b + 1 < kNumBuckets)
                s += ",";
        }
        return s + "}}";
    };

    std::string s = "{\"sampled\":" + std::to_string(requests.size()) +
        ",\"median\":" + cohort(median) + ",\"tail\":" + cohort(tail) +
        ",\"all\":" + cohort(all) + ",\"requests\":[";
    for (size_t i = 0; i < requests.size(); ++i) {
        const RequestAnatomy &a = requests[i];
        s += "{\"req\":" + std::to_string(a.reqId) +
             ",\"batch\":" + std::to_string(a.batchId) +
             ",\"e2e_us\":" + fmtTicksUs(a.e2eTicks) +
             ",\"miss\":" + (a.miss ? "true" : "false") +
             ",\"orphan\":" + (a.orphan ? "true" : "false") +
             ",\"blocked_on_batch\":" +
             (a.blockedOnBatch ? "true" : "false") + ",\"buckets_us\":{";
        for (int b = 0; b < kNumBuckets; ++b) {
            s += std::string("\"") + bucketName(static_cast<Bucket>(b)) +
                 "\":" + fmtTicksUs(a.ticks[b]);
            if (b + 1 < kNumBuckets)
                s += ",";
        }
        s += "}}";
        if (i + 1 < requests.size())
            s += ",";
    }
    return s + "]}";
}

void
BatchAnatomyRecorder::onBatchStart(uint64_t batch, int size, uint64_t opIdx)
{
    Row r;
    r.batch = batch;
    r.size = size;
    r.startOp = opIdx;
    r.endOp = opIdx;
    rows_.push_back(std::move(r));
    open_ = true;
}

void
BatchAnatomyRecorder::onOp(const trace::DynOp &op, int width, uint64_t opIdx)
{
    if (!open_)
        return;
    Row &r = rows_.back();
    int active = op.activeLanes();
    ++r.ops;
    r.scalarOps += static_cast<uint64_t>(active);
    r.maskedSlots += static_cast<uint64_t>(width - active);
    if (op.isMem())
        r.memSlots += static_cast<uint64_t>(active);
    r.endOp = opIdx;
}

void
BatchAnatomyRecorder::onDiverge(isa::Pc pc, uint64_t opIdx)
{
    (void)pc;
    (void)opIdx;
    if (open_)
        ++rows_.back().divergeEvents;
}

void
BatchAnatomyRecorder::onBatchEnd(uint64_t batch, uint64_t opIdx)
{
    (void)batch;
    if (!open_)
        return;
    rows_.back().endOp = opIdx;
    open_ = false;
}

ChipLink
BatchAnatomyRecorder::link(int tier) const
{
    ChipLink l;
    l.tier = tier;
    uint64_t scalar = 0, masked = 0, mem = 0;
    for (const Row &r : rows_) {
        scalar += r.scalarOps;
        masked += r.maskedSlots;
        mem += r.memSlots;
    }
    uint64_t slots = scalar + masked;  // == ops * width, width-agnostic
    if (slots) {
        l.divergenceFrac = static_cast<double>(masked) /
                           static_cast<double>(slots);
        l.memoryFrac = static_cast<double>(mem) /
                       static_cast<double>(slots);
    }
    return l;
}

void
recordJourneyMetrics(Registry *reg, const JourneyRecorder &rec,
                     const AnatomyReport &report)
{
    if (!reg)
        return;
    reg->counter("sys.journey.seen")->inc(rec.seen());
    reg->counter("sys.journey.sampled")->inc(report.requests.size());
    reg->gauge("sys.journey.mode")
        ->set(static_cast<double>(static_cast<int>(rec.mode())));
    auto cohort = [&](const char *name, const CohortAnatomy &c) {
        std::string base = std::string("sys.journey.") + name + ".";
        reg->gauge(base + "e2e_us")->set(c.meanE2eUs());
        for (int b = 0; b < kNumBuckets; ++b) {
            double us = c.count
                ? journeyUs(c.ticks[b]) / static_cast<double>(c.count)
                : 0.0;
            reg->gauge(base + bucketName(static_cast<Bucket>(b)) + "_us")
                ->set(us);
        }
    };
    cohort("median", report.median);
    cohort("tail", report.tail);
}

} // namespace simr::obs
