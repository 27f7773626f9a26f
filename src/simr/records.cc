#include "simr/records.h"

#include <cinttypes>
#include <cstring>
#include <map>

namespace simr
{
namespace
{

/** Incremental FNV-1a. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    byte(uint8_t b)
    {
        h = (h ^ b) * 0x100000001b3ULL;
    }

    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
};

void
recordStat(Records &out, const std::string &key, const RunningStat &s)
{
    out.u64(key + "count", s.count());
    out.f64(key + "sum_us", s.sum());
    out.f64(key + "max_us", s.max());
    out.f64(key + "mean_us", s.mean());
    out.f64(key + "min_us", s.min());
    out.f64(key + "var_us2", s.variance());
}

/** FNV-1a over a counter map's names and values. */
uint64_t
counterHash(const CounterSet &c)
{
    Fnv f;
    for (const auto &[name, count] : c.all()) {
        for (char ch : name)
            f.byte(static_cast<uint8_t>(ch));
        f.byte(0);
        f.word(count);
    }
    return f.h;
}

/** FNV-1a over a histogram's sorted sample bits. */
uint64_t
sampleHash(const Histogram &h)
{
    Fnv f;
    for (double x : h.sortedSamples()) {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        f.word(bits);
    }
    return f.h;
}

} // namespace

void
Records::u64(const std::string &key, uint64_t v)
{
    text(key, std::to_string(v));
}

void
Records::f64(const std::string &key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text(key, buf);
}

void
Records::hex(const std::string &key, uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    text(key, buf);
}

void
Records::text(const std::string &key, std::string v)
{
    rows_.emplace_back(key, std::move(v));
}

void
record(Records &out, const std::string &k, const TimingRun &r)
{
    const core::CoreResult &c = r.core;
    out.u64(k + "cycles", c.cycles);
    out.u64(k + "batch_ops", c.batchOps);
    out.u64(k + "scalar_insts", c.scalarInsts);
    out.u64(k + "requests", c.requests);
    out.f64(k + "energy_j", r.energy.total());
    out.f64(k + "req_per_j", r.reqPerJoule());
    out.f64(k + "p50_cycles", c.reqLatency.percentile(0.50));
    out.f64(k + "p99_cycles", c.reqLatency.percentile(0.99));
    out.hex(k + "counters_fnv", counterHash(c.counters));
    out.f64(k + "p90_cycles", c.reqLatency.percentile(0.90));
    out.f64(k + "p95_cycles", c.reqLatency.percentile(0.95));
    out.u64(k + "latency_count", c.reqLatency.count());
    out.f64(k + "latency_mean_cycles", c.reqLatency.mean());
    out.f64(k + "latency_min_cycles", c.reqLatency.min());
    out.f64(k + "latency_max_cycles", c.reqLatency.max());
    out.hex(k + "latency_fnv", sampleHash(c.reqLatency));
    out.u64(k + "l1_accesses", c.l1Stats.accesses);
    out.u64(k + "l1_misses", c.l1Stats.misses);
    out.u64(k + "l1_store_accesses", c.l1Stats.storeAccesses);
    out.u64(k + "l1_writebacks", c.l1Stats.writebacks);
    out.u64(k + "mcu_batch_mem_insts", c.mcuStats.batchMemInsts);
    out.u64(k + "mcu_lane_accesses", c.mcuStats.laneAccesses);
    out.u64(k + "mcu_generated_accesses", c.mcuStats.generatedAccesses);
    out.u64(k + "mcu_same_word", c.mcuStats.sameWord);
    out.u64(k + "mcu_stack_coalesced", c.mcuStats.stackCoalesced);
    out.u64(k + "mcu_consecutive", c.mcuStats.consecutive);
    out.u64(k + "mcu_divergent", c.mcuStats.divergent);
    out.u64(k + "l1_bank_conflict_cycles",
            c.hierStats.l1BankConflictCycles);
    out.u64(k + "mshr_merges", c.hierStats.mshrMerges);
    out.u64(k + "atomics_at_l3", c.hierStats.atomicsAtL3);
    out.u64(k + "mem_accesses", c.hierStats.totalAccesses);
    out.u64(k + "mem_latency_cycles", c.hierStats.totalLatency);
    out.u64(k + "tlb_lookups", c.tlbStats.lookups);
    out.u64(k + "tlb_misses", c.tlbStats.misses);
    out.u64(k + "bp_lookups", c.bpStats.lookups);
    out.u64(k + "bp_mispredicts", c.bpStats.mispredicts);
    out.u64(k + "bp_majority_votes", c.bpStats.majorityVotes);
    out.u64(k + "bp_minority_lane_flushes", c.bpStats.minorityLaneFlushes);
}

void
record(Records &out, const std::string &k, const simt::SimtStats &s)
{
    out.u64(k + "batch_ops", s.batchOps);
    out.u64(k + "scalar_ops", s.scalarOps);
    out.u64(k + "masked_slots", s.maskedSlots);
    out.u64(k + "diverge_events", s.divergeEvents);
    out.u64(k + "reconv_merges", s.reconvMerges);
    out.u64(k + "path_switches", s.pathSwitches);
    out.u64(k + "spin_escapes", s.spinEscapes);
    out.u64(k + "hint_violations", s.hintViolations);
    out.u64(k + "batches", s.batches);
    out.u64(k + "width", static_cast<uint64_t>(s.width));
}

void
record(Records &out, const std::string &k, const sys::SysResult &r)
{
    out.f64(k + "offered_qps", r.offeredQps);
    out.f64(k + "achieved_qps", r.achievedQps);
    out.u64(k + "e2e_count", r.e2eUs.count());
    out.f64(k + "e2e_mean_us", r.meanUs());
    out.f64(k + "e2e_p50_us", r.e2eUs.percentile(0.50));
    out.f64(k + "e2e_p99_us", r.p99Us());
    out.f64(k + "e2e_max_us", r.e2eUs.max());
    out.f64(k + "e2e_min_us", r.e2eUs.min());
    out.hex(k + "e2e_fnv", sampleHash(r.e2eUs));
    for (size_t i = 0; i < r.tiers.size(); ++i) {
        const std::string tk = k + r.tiers[i].name + "/";
        out.u64(tk + "index", i);
        recordStat(out, tk + "wait_", r.tiers[i].waitUs);
        recordStat(out, tk + "service_", r.tiers[i].serviceUs);
    }
}

void
record(Records &out, const std::string &k, const sys::ClusterResult &r)
{
    record(out, k, r.sys);
    out.u64(k + "servers", r.servers);
    out.u64(k + "batches", r.batches);
    out.u64(k + "memc_misses", r.memcMisses);
    out.u64(k + "split_orphans", r.splitOrphans);
}

void
record(Records &out, const std::string &k,
       const std::vector<obs::Journey> &js)
{
    out.u64(k + "journeys", js.size());
    for (size_t i = 0; i < js.size(); ++i) {
        const obs::Journey &j = js[i];
        const std::string jk = k + "journey/" + std::to_string(i) + "/";
        out.u64(jk + "req_id", j.reqId);
        out.u64(jk + "batch_id", j.batchId);
        out.u64(jk + "batch_size", j.batchSize);
        out.u64(jk + "miss", j.miss);
        out.u64(jk + "orphan", j.orphan);
        out.u64(jk + "blocked_on_batch", j.blockedOnBatch);
        out.u64(jk + "events", j.events.size());
        Fnv f;
        for (const obs::JourneyEvent &e : j.events) {
            f.word(static_cast<uint64_t>(e.tick));
            f.word(e.aux);
            f.byte(static_cast<uint8_t>(e.kind));
            f.byte(static_cast<uint8_t>(e.tier));
            f.byte(e.foreign);
        }
        out.hex(jk + "events_fnv", f.h);
    }
}

std::vector<RecordDiff>
compare(const Records &want, const Records &got)
{
    std::map<std::string, std::string> have(got.all().begin(),
                                            got.all().end());
    std::vector<RecordDiff> diffs;
    for (const auto &[k, v] : want.all()) {
        auto it = have.find(k);
        if (it == have.end()) {
            diffs.push_back({k, v, ""});
            continue;
        }
        if (it->second != v)
            diffs.push_back({k, v, it->second});
        have.erase(it);
    }
    for (const auto &[k, v] : got.all())
        if (have.count(k) != 0)
            diffs.push_back({k, "", v});
    return diffs;
}

size_t
printDiff(FILE *out, const std::string &what,
          const std::vector<RecordDiff> &diffs, size_t limit)
{
    if (diffs.empty())
        return 0;
    std::fprintf(out, "%s: %zu record(s) differ\n", what.c_str(),
                 diffs.size());
    for (size_t i = 0; i < diffs.size() && i < limit; ++i) {
        const RecordDiff &d = diffs[i];
        std::fprintf(out, "  %-10s %s: want %s, got %s\n",
                     d.got.empty() ? "missing" :
                     d.want.empty() ? "unexpected" : "differs",
                     d.key.c_str(), d.want.c_str(), d.got.c_str());
    }
    if (diffs.size() > limit)
        std::fprintf(out, "  ... and %zu more\n", diffs.size() - limit);
    return diffs.size();
}

} // namespace simr
