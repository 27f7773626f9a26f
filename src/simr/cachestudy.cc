#include "simr/cachestudy.h"

#include "analysis/cache.h"
#include "mem/cache.h"
#include "simr/runner.h"

namespace simr
{
namespace
{

/**
 * MCU + L1 accounting of one op stream: every memory op is coalesced
 * and its line accesses go through the L1. As a lockstep observer it
 * sees every batch op of an engine run.
 */
class L1Study : public simt::LockstepObserver
{
  public:
    L1Study(bool interleave_stacks, int batch_size, uint64_t l1_kb,
            int banks)
        : map_(interleave_stacks, batch_size), mcu_(map_),
          l1_(l1Config(l1_kb, banks))
    {}

    void
    account(const trace::DynOp &op)
    {
        if (!op.isMem())
            return;
        res_.laneAccesses += op.addrCount;
        mcu_.coalesce(op, accesses_);
        for (const auto &a : accesses_) {
            ++res_.l1Accesses;
            if (!l1_.access(a.paddr, a.isStore))
                ++res_.l1Misses;
        }
    }

    void
    onOp(const trace::DynOp &op, int, uint64_t) override
    {
        account(op);
    }

    CacheStudyResult
    result(const simt::SimtStats &simt)
    {
        res_.simt = simt;
        res_.mcu = mcu_.stats();
        return res_;
    }

  private:
    static mem::CacheConfig
    l1Config(uint64_t l1_kb, int banks)
    {
        mem::CacheConfig cfg;
        cfg.name = "l1d";
        cfg.sizeBytes = l1_kb * 1024;
        cfg.assoc = 8;
        cfg.banks = banks;
        return cfg;
    }

    mem::AddressMap map_;
    mem::Mcu mcu_;
    mem::Cache l1_;
    CacheStudyResult res_;
    std::vector<mem::MemAccess> accesses_;
};

} // namespace

CacheStudyResult
studyRpuCache(const svc::Service &svc, int batch_size,
              const CacheStudyOptions &opt)
{
    L1Study l1(true, batch_size, opt.l1KB, 8);
    return l1.result(measureEfficiency(svc, batch::Policy::PerApiArgSize,
                                       simt::ReconvPolicy::MinSpPc,
                                       batch_size, opt.requests, opt.seed,
                                       &l1).stats);
}

CacheStudyResult
studyCpuCache(const svc::Service &svc, const CacheStudyOptions &opt)
{
    analysis::gateAndProve(svc.program());
    trace::ScalarStream stream(
        svc.program(),
        makeScalarProvider(svc, genRequests(svc, opt.requests, opt.seed), 0,
                           mem::AllocPolicy::GlibcLike));

    L1Study l1(false, 1, opt.l1KB, 1);
    simt::SimtStats simt;
    trace::DynOp op;
    while (stream.next(op)) {
        ++simt.scalarOps;
        l1.account(op);
    }
    return l1.result(simt);
}

} // namespace simr
