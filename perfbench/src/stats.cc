#include "stats.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

namespace perfbench
{

void
Digest::bytes(const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::f64(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

void
addHistogram(Digest &d, const simr::Histogram &h)
{
    d.u64(h.count());
    d.f64(h.mean());
    d.f64(h.min());
    d.f64(h.max());
    for (int i = 0; i <= 100; ++i)
        d.f64(h.percentile(i / 100.0));
}

void
addCore(Digest &d, const simr::core::CoreResult &c)
{
    d.str(c.configName);
    d.f64(c.freqGhz);
    d.u64(c.cycles);
    d.u64(c.batchOps);
    d.u64(c.scalarInsts);
    d.u64(c.requests);
    addHistogram(d, c.reqLatency);
    for (const auto &[name, count] : c.counters.all()) {
        d.str(name);
        d.u64(count);
    }
    d.u64(c.l1Stats.accesses);
    d.u64(c.l1Stats.misses);
    d.u64(c.l1Stats.storeAccesses);
    d.u64(c.l1Stats.writebacks);
    d.u64(c.mcuStats.batchMemInsts);
    d.u64(c.mcuStats.laneAccesses);
    d.u64(c.mcuStats.generatedAccesses);
    d.u64(c.mcuStats.sameWord);
    d.u64(c.mcuStats.stackCoalesced);
    d.u64(c.mcuStats.consecutive);
    d.u64(c.mcuStats.divergent);
    d.u64(c.hierStats.l1BankConflictCycles);
    d.u64(c.hierStats.mshrMerges);
    d.u64(c.hierStats.atomicsAtL3);
    d.u64(c.hierStats.totalAccesses);
    d.u64(c.hierStats.totalLatency);
    d.u64(c.tlbStats.lookups);
    d.u64(c.tlbStats.misses);
    d.u64(c.bpStats.lookups);
    d.u64(c.bpStats.mispredicts);
    d.u64(c.bpStats.majorityVotes);
    d.u64(c.bpStats.minorityLaneFlushes);
}

void
addEnergy(Digest &d, const simr::energy::EnergyBreakdown &e)
{
    d.f64(e.frontendOoo);
    d.f64(e.execution);
    d.f64(e.memory);
    d.f64(e.simtOverhead);
    d.f64(e.staticEnergy);
}

void
addSimt(Digest &d, const simr::simt::SimtStats &s)
{
    d.u64(s.batchOps);
    d.u64(s.scalarOps);
    d.u64(s.maskedSlots);
    d.u64(s.divergeEvents);
    d.u64(s.reconvMerges);
    d.u64(s.pathSwitches);
    d.u64(s.spinEscapes);
    d.u64(s.batches);
    d.u64(static_cast<uint64_t>(s.width));
}

void
addSys(Digest &d, const simr::sys::SysResult &r)
{
    d.f64(r.offeredQps);
    d.f64(r.achievedQps);
    addHistogram(d, r.e2eUs);
    for (const auto &t : r.tiers) {
        d.str(t.name);
        for (const simr::RunningStat *rs : {&t.waitUs, &t.serviceUs}) {
            d.u64(rs->count());
            d.f64(rs->sum());
            d.f64(rs->min());
            d.f64(rs->max());
            d.f64(rs->variance());
        }
    }
}

void
addCluster(Digest &d, const simr::sys::ClusterResult &r)
{
    addSys(d, r.sys);
    d.u64(r.servers);
    d.u64(r.batches);
    d.u64(r.memcMisses);
    d.u64(r.splitOrphans);
}

uint64_t
chipDigest(const simr::TimingRun &r)
{
    Digest d;
    addCore(d, r.core);
    addEnergy(d, r.energy);
    addSimt(d, r.simt);
    return d.value();
}

bool
sameChip(const simr::TimingRun &a, const simr::TimingRun &b)
{
    return chipDigest(a) == chipDigest(b) &&
        a.core.reqLatency.identicalTo(b.core.reqLatency);
}

void
checkChip(Checks &c, const std::string &cell, const simr::TimingRun &o,
          uint64_t issued)
{
    std::string why;
    if (o.core.requests != issued)
        why += " " + std::to_string(o.core.requests) + " of " +
            std::to_string(issued) + " requests retired;";
    if (o.core.reqLatency.count() != o.core.requests)
        why += " latency histogram counts " +
            std::to_string(o.core.reqLatency.count()) + " requests;";
    const double j = o.energy.total();
    if (!(std::isfinite(j) && j > 0))
        why += " energy " + std::to_string(j) + " J;";
    c.expect(why.empty(), cell + ":" + why);
}

} // namespace perfbench
