#include "core/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "core/counters.h"

namespace simr::core
{

using trace::DynOp;

namespace
{

/** CounterSet names of the StallKind scratch slots, in enum order. */
constexpr const char *kStallNames[] = {
    "stall.dep",       // kStallDep
    "stall.lsq",       // kStallLsq
    "stall.port",      // kStallPort
    "stall.fe_branch", // kStallFeBranch
    "stall.fe_refill", // kStallFeRefill
    "stall.rob_full",  // kStallRobFull
};

/** CounterSet names of the HotCtr slots, in enum order. */
constexpr const char *kHotNames[] = {
    ctr::kFetch,            // kHotFetch
    ctr::kDecode,           // kHotDecode
    ctr::kRename,           // kHotRename
    ctr::kRobWrite,         // kHotRobWrite
    ctr::kSimtSelect,       // kHotSimtSelect
    ctr::kPathSwitch,       // kHotPathSwitch
    ctr::kBpLookup,         // kHotBpLookup
    ctr::kBpMispredict,     // kHotBpMispredict
    "frontend.icache_miss", // kHotIcacheMiss
    ctr::kIqWakeup,         // kHotIqWakeup
    ctr::kRegRead,          // kHotRegRead
    ctr::kRegWrite,         // kHotRegWrite
    ctr::kIntOps,           // kHotIntOps
    ctr::kMulOps,           // kHotMulOps
    ctr::kDivOps,           // kHotDivOps
    ctr::kFpOps,            // kHotFpOps
    ctr::kSimdOps,          // kHotSimdOps
    ctr::kBranchOps,        // kHotBranchOps
    ctr::kSyscalls,         // kHotSyscalls
    ctr::kLsqInsert,        // kHotLsqInsert
    ctr::kMcuInsts,         // kHotMcuInsts
    ctr::kRobCommit,        // kHotRobCommit
};

} // namespace

TimingCore::TimingCore(const CoreConfig &cfg)
    : cfg_(cfg),
      map_(cfg.stackInterleave, cfg.batchWidth),
      mcu_(map_, cfg.mem.l1.lineBytes),
      hier_(cfg.mem, map_)
{
    simr_assert(cfg_.smtThreads >= 1, "bad SMT degree");
    simr_assert(cfg_.robEntries >= cfg_.smtThreads, "ROB too small");
    rob_.resize(static_cast<size_t>(cfg_.robEntries));
    intPorts_.assign(static_cast<size_t>(cfg_.intAluPorts), 0);
    mulPorts_.assign(static_cast<size_t>(cfg_.mulDivPorts), 0);
    simdPorts_.assign(static_cast<size_t>(cfg_.simdPorts), 0);
    memPorts_.assign(static_cast<size_t>(cfg_.memPorts), 0);
    brPorts_.assign(static_cast<size_t>(cfg_.branchPorts), 0);
    fpPorts_.assign(static_cast<size_t>(cfg_.simdPorts), 0);
    // The MCU emits at most one access per lane, plus one for a
    // straddling scalar access; reserving up front keeps the per-op
    // coalesce path allocation-free.
    scratchAccesses_.reserve(
        static_cast<size_t>(std::max(cfg_.batchWidth, 2)) + 1);
}

TimingCore::~TimingCore() = default;

bool
TimingCore::allDrained() const
{
    if (robCount_ != 0)
        return false;
    for (const auto &s : streams_)
        if (!s.exhausted || s.hasPending)
            return false;
    return true;
}

bool
TimingCore::claimPort(uint64_t cycle, const DynOp &op, uint32_t occupancy)
{
    std::vector<uint64_t> *ports = nullptr;
    switch (isa::opInfo(op.si->op).fu) {
      case isa::FuClass::IntAlu: ports = &intPorts_; break;
      case isa::FuClass::IntMul:
      case isa::FuClass::IntDiv: ports = &mulPorts_; break;
      case isa::FuClass::FpAlu: ports = &fpPorts_; break;
      case isa::FuClass::SimdUnit: ports = &simdPorts_; break;
      case isa::FuClass::LoadStore: ports = &memPorts_; break;
      case isa::FuClass::BranchUnit: ports = &brPorts_; break;
      case isa::FuClass::SysUnit: ports = &brPorts_; break;
      case isa::FuClass::None: return true;
    }
    uint64_t soonest = UINT64_MAX;
    for (auto &free_at : *ports) {
        if (free_at <= cycle) {
            free_at = cycle + occupancy;
            return true;
        }
        soonest = std::min(soonest, free_at);
    }
    // Port-starved: remember when this class frees up so the
    // event-driven loop knows the next cycle issue can make progress.
    portNextFree_ = std::min(portNextFree_, soonest);
    return false;
}

void
TimingCore::hot(int k, uint64_t n)
{
    hotCtrs_[k] += n;
}

uint32_t
TimingCore::executeAt(uint64_t cycle, RobEntry &e)
{
    const DynOp &op = e.op;
    uint64_t active =
        static_cast<uint64_t>(std::max(op.activeLanes(), 1));

    switch (op.si->op) {
      case isa::Op::IAlu: {
        hot(kHotIntOps, active);
        bool complex = op.si->alu == isa::AluKind::Mix ||
            op.si->alu == isa::AluKind::ModImm;
        return static_cast<uint32_t>(complex ? cfg_.complexAluLat
                                             : cfg_.aluLat);
      }
      case isa::Op::IMul:
        hot(kHotMulOps, active);
        return static_cast<uint32_t>(cfg_.mulLat);
      case isa::Op::IDiv:
        hot(kHotDivOps, active);
        return static_cast<uint32_t>(cfg_.divLat);
      case isa::Op::FAlu:
        hot(kHotFpOps, active);
        return static_cast<uint32_t>(cfg_.faluLat);
      case isa::Op::Simd:
        hot(kHotSimdOps, active);
        return static_cast<uint32_t>(cfg_.simdLat);
      case isa::Op::Branch:
      case isa::Op::Jump:
      case isa::Op::Call:
      case isa::Op::Ret:
        hot(kHotBranchOps, active);
        return static_cast<uint32_t>(cfg_.branchLat);
      case isa::Op::Syscall:
        hot(kHotSyscalls, active);
        return static_cast<uint32_t>(cfg_.syscallLat);
      case isa::Op::Fence:
      case isa::Op::Nop:
        return 1;
      case isa::Op::Load:
      case isa::Op::Store:
      case isa::Op::Atomic: {
        hot(kHotLsqInsert);
        hot(kHotMcuInsts);
        mem::CoalesceKind kind = mcu_.coalesce(op, scratchAccesses_);
        uint32_t lat = hier_.accessGroup(cycle, scratchAccesses_, kind);
        memInFlight_.push(cycle + lat);
        if (op.si->op == isa::Op::Store) {
            // Stores retire through the store buffer; latency is hidden
            // from the dependence chain.
            return 1;
        }
        return lat;
      }
      default:
        simr_panic("unhandled op in executeAt");
    }
}

int
TimingCore::fetch(uint64_t cycle)
{
    int budget = cfg_.fetchWidth;
    int n = static_cast<int>(streams_.size());
    int partition = cfg_.robEntries / static_cast<int>(streams_.size());
    // SMT partitions the frontend: each hardware thread gets its slice
    // of the fetch bandwidth per cycle (Table IV: 1-wide per thread at
    // SMT-8), which is what costs SMT its single-thread latency.
    int per_stream = std::max(1, cfg_.fetchWidth / n);
    int fetched = 0;

    for (int i = 0; i < n && budget > 0; ++i) {
        int si = (rrCursor_ + i) % n;
        StreamCtx &s = streams_[static_cast<size_t>(si)];
        int stream_budget = std::min(budget, per_stream);
        while (stream_budget > 0) {
            if (s.exhausted && !s.hasPending)
                break;
            if (s.waitingBranch || cycle < s.stallUntil) {
                StallKind k = s.waitingBranch ? kStallFeBranch
                                              : kStallFeRefill;
                ++cycleStalls_[k];
                break;
            }
            if (robCount_ >= rob_.size() || s.inFlight >= partition) {
                ++cycleStalls_[kStallRobFull];
                break;
            }

            if (!s.hasPending) {
                if (!s.stream->next(s.pending)) {
                    s.exhausted = true;
                    break;
                }
                s.hasPending = true;
            }

            DynOp &op = s.pending;
            if (op.batchStart)
                s.reqStart = cycle;

            // Instruction-supply stalls: fixed-point accumulate the
            // per-fetched-op i-miss rate; on overflow, charge a refill.
            s.icacheAccum += icacheStep_;
            if (s.icacheAccum >= 1000000) {
                s.icacheAccum -= 1000000;
                s.stallUntil = cycle +
                    static_cast<uint64_t>(cfg_.icacheMissPenalty);
                hot(kHotIcacheMiss);
            }

            // Frontend accounting: once per (batch) instruction.
            hot(kHotFetch);
            hot(kHotDecode);
            hot(kHotRename);
            hot(kHotRobWrite);
            if (cfg_.batchWidth > 1) {
                hot(kHotSimtSelect);
                if (op.pathSwitch)
                    hot(kHotPathSwitch);
            }

            bool blocks_fetch = false;
            bool mispred = false;
            if (op.isBranch()) {
                hot(kHotBpLookup);
                if (cfg_.inOrder) {
                    // No speculation: every branch stalls fetch until
                    // it resolves.
                    blocks_fetch = true;
                } else {
                    mispred = s.bpred->predictAndTrain(op);
                    blocks_fetch = mispred;
                }
            }

            size_t slot = robHead_ + robCount_;
            if (slot >= rob_.size())
                slot -= rob_.size();
            RobEntry &e = rob_[slot];
            e.op.copyFrom(op);
            e.stream = si;
            e.seq = ++s.fetchedSeq;
            e.doneCycle = 0;
            e.reqStart = s.reqStart;
            e.issued = false;
            e.mispredicted = blocks_fetch;
            s.doneAt[e.seq % kDoneRing] = UINT64_MAX;
            ++robCount_;
            ++s.inFlight;
            s.hasPending = false;
            --budget;
            --stream_budget;
            ++fetched;

            if (blocks_fetch) {
                s.waitingBranch = true;
                if (mispred)
                    hot(kHotBpMispredict);
                break;
            }
        }
    }
    rrCursor_ = (rrCursor_ + 1) % n;
    return fetched;
}

int
TimingCore::issue(uint64_t cycle)
{
    // Retire completed memory transactions from the LSQ occupancy.
    while (!memInFlight_.empty() && memInFlight_.top() <= cycle)
        memInFlight_.pop();

    int budget = cfg_.issueWidth;
    int issued = 0;
    size_t examined = 0;
    // Start past the all-issued prefix (those entries would only be
    // skipped) and keep the ring index incrementally: no div/mod on
    // the hottest loop in the simulator.
    const size_t rob_sz = rob_.size();
    size_t slot = robHead_ + issuedPrefix_;
    if (slot >= rob_sz)
        slot -= rob_sz;
    for (size_t i = issuedPrefix_; i < robCount_ && budget > 0 &&
             examined < static_cast<size_t>(cfg_.schedWindow); ++i) {
        RobEntry &e = rob_[slot];
        if (++slot == rob_sz)
            slot = 0;
        if (e.issued) {
            if (i == issuedPrefix_)
                ++issuedPrefix_;
            continue;
        }
        ++examined;

        StreamCtx &s = streams_[static_cast<size_t>(e.stream)];
        if (cfg_.inOrder && e.seq != s.issuedSeq + 1)
            continue;

        // Dependence check via the per-stream completion ring.
        auto ready = [&](uint16_t dep) {
            if (dep == 0 || dep >= kDoneRing || e.seq <= dep)
                return true;
            uint64_t pseq = e.seq - dep;
            return s.doneAt[pseq % kDoneRing] <= cycle;
        };
        if (!ready(e.op.dep1) || !ready(e.op.dep2)) {
            ++cycleStalls_[kStallDep];
            continue;
        }

        if (e.op.isMem() &&
            memInFlight_.size() >=
                static_cast<size_t>(cfg_.lsqEntries)) {
            ++cycleStalls_[kStallLsq];
            continue;
        }

        // Sub-batch interleaving: a per-lane computation occupies its FU
        // for ceil(active / lanes) issue slots; inactive lanes are
        // skipped (Fig. 8a). Pure control transfers (handled by the
        // convergence optimizer), fences and memory ops take one slot:
        // the LSQ allocates a single 8-wide row per batch instruction
        // (Fig. 9) and the banked L1 models any access serialization.
        uint32_t occupancy = 1;
        switch (e.op.si->op) {
          case isa::Op::IAlu:
          case isa::Op::IMul:
          case isa::Op::IDiv:
          case isa::Op::FAlu:
          case isa::Op::Simd:
          case isa::Op::Branch:
            occupancy = static_cast<uint32_t>(
                (std::max(e.op.activeLanes(), 1) + cfg_.lanes - 1) /
                cfg_.lanes);
            break;
          default:
            break;
        }
        if (!claimPort(cycle, e.op, occupancy)) {
            ++cycleStalls_[kStallPort];
            continue;
        }

        uint32_t lat = executeAt(cycle, e);
        e.doneCycle = cycle + occupancy - 1 + lat;
        // A completion at cycle+1 can never bound a skip: the earliest
        // possible no-progress cycle is already cycle+1 (this cycle
        // issued something), where that completion is in the past. So
        // single-cycle ops -- the bulk of the mix -- skip the heap.
        if (cfg_.eventDriven && e.doneCycle > cycle + 1)
            completions_.push(e.doneCycle);
        e.issued = true;
        if (i == issuedPrefix_)
            ++issuedPrefix_;
        s.doneAt[e.seq % kDoneRing] = e.doneCycle;
        if (cfg_.inOrder)
            s.issuedSeq = e.seq;
        --budget;
        ++issued;
        hot(kHotIqWakeup);

        // Register file activity (per active lane).
        uint64_t active =
            static_cast<uint64_t>(std::max(e.op.activeLanes(), 1));
        hot(kHotRegRead, 2 * active);
        if (isa::opInfo(e.op.si->op).writesReg)
            hot(kHotRegWrite, active);

        if (e.mispredicted) {
            // Fetch resumes after resolution plus the refill depth.
            s.stallUntil = e.doneCycle +
                static_cast<uint64_t>(cfg_.frontendDepth);
            s.waitingBranch = false;
        }
    }
    return issued;
}

int
TimingCore::commit(uint64_t cycle)
{
    int budget = cfg_.commitWidth;
    int committed = 0;
    while (robCount_ > 0 && budget > 0) {
        RobEntry &e = rob_[robHead_];
        if (!e.issued || e.doneCycle > cycle)
            break;
        StreamCtx &s = streams_[static_cast<size_t>(e.stream)];

        hot(kHotRobCommit);
        ++res_.batchOps;
        res_.scalarInsts +=
            static_cast<uint64_t>(std::max(e.op.activeLanes(), 1));

        if (e.op.endMask) {
            int ended = trace::popcount(e.op.endMask);
            res_.reqLatency.addN(static_cast<double>(cycle - e.reqStart),
                                 static_cast<uint64_t>(ended));
            res_.requests += static_cast<uint64_t>(ended);
        }

        if (++robHead_ == rob_.size())
            robHead_ = 0;
        --robCount_;
        if (issuedPrefix_ > 0)
            --issuedPrefix_;
        --s.inFlight;
        --budget;
        ++committed;
    }
    return committed;
}

uint64_t
TimingCore::nextEventCycle(uint64_t cycle)
{
    uint64_t next = UINT64_MAX;

    // Completion of an issued, in-flight op: wakes its dependents and,
    // at the ROB head, the committer. Un-issued entries cannot change
    // state before one of the other events fires first. The heap is
    // lazy: drop heads that already completed (their event is in the
    // past, and the clock is monotone, so they can never matter again).
    while (!completions_.empty() && completions_.top() <= cycle)
        completions_.pop();
    if (!completions_.empty())
        next = completions_.top();

    // Frontend refill expiry re-enables fetch. A stream parked on an
    // unresolved branch ignores its stallUntil (resolution happens at
    // issue, which one of the other events gates).
    for (const auto &s : streams_) {
        if (!s.exhausted && !s.waitingBranch && s.stallUntil > cycle)
            next = std::min(next, s.stallUntil);
    }

    // LSQ drain matters only when something stalled on a full LSQ this
    // cycle; the head of memInFlight_ is the first retirement.
    if (cycleStalls_[kStallLsq] > 0 && !memInFlight_.empty())
        next = std::min(next, memInFlight_.top());

    // FU-port release matters only when something port-starved this
    // cycle; claimPort recorded the earliest release among those FUs.
    if (cycleStalls_[kStallPort] > 0)
        next = std::min(next, portNextFree_);

    return next;
}

CoreResult
TimingCore::run(const std::vector<trace::DynStream *> &streams,
                uint64_t max_cycles)
{
    simr_assert(!streams.empty(), "no streams attached");
    simr_assert(cfg_.smtThreads == static_cast<int>(streams.size()),
                "stream count must equal the SMT degree");

    res_ = CoreResult();
    res_.configName = cfg_.name;
    res_.freqGhz = cfg_.freqGhz;
    hier_.reset();
    mcu_.resetStats();

    streams_.clear();
    streams_.resize(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        streams_[i].stream = streams[i];
        streams_[i].bpred =
            std::make_unique<BatchBpred>(cfg_.majorityVoteBp);
        streams_[i].doneAt.assign(kDoneRing, 0);
    }
    robHead_ = 0;
    robCount_ = 0;
    issuedPrefix_ = 0;
    rrCursor_ = 0;
    {
        // Same expression the per-op path used to evaluate, hoisted:
        // the accumulator step is a run constant.
        double mpki = cfg_.icacheMpki *
            (cfg_.smtThreads > 1 ? cfg_.smtIcacheFactor : 1.0);
        icacheStep_ = static_cast<uint64_t>(mpki * 1000.0);
    }
    std::fill(intPorts_.begin(), intPorts_.end(), 0);
    std::fill(mulPorts_.begin(), mulPorts_.end(), 0);
    std::fill(simdPorts_.begin(), simdPorts_.end(), 0);
    std::fill(memPorts_.begin(), memPorts_.end(), 0);
    std::fill(brPorts_.begin(), brPorts_.end(), 0);
    std::fill(fpPorts_.begin(), fpPorts_.end(), 0);
    while (!memInFlight_.empty())
        memInFlight_.pop();
    while (!completions_.empty())
        completions_.pop();
    std::fill(std::begin(stallTotals_), std::end(stallTotals_), 0);
    std::fill(std::begin(hotCtrs_), std::end(hotCtrs_), 0);

    const uint64_t nstreams = streams_.size();
    uint64_t cycle = 0;
    while (cycle < max_cycles && !allDrained()) {
        std::fill(std::begin(cycleStalls_), std::end(cycleStalls_), 0);
        portNextFree_ = UINT64_MAX;

        int work = commit(cycle);
        work += issue(cycle);
        work += fetch(cycle);

        // Event-driven cycle skipping. A cycle with no commit, no issue
        // and no fetch changes nothing but the clock: every ROB entry
        // keeps its stall reason and every stream its fetch-stall
        // reason until the next event fires (dependence/commit wake-ups
        // are bounded by the earliest doneCycle, LSQ occupancy by
        // memInFlight_'s head, port starvation by the earliest release,
        // refills by stallUntil). So ticking through the stall would
        // re-record exactly this cycle's stall pattern on every skipped
        // cycle -- which is what makes replaying it `span` times
        // bit-identical, including the round-robin cursor advance. The
        // per-cycle reference (eventDriven = false) never skips: span
        // stays 1.
        uint64_t span = 1;
        if (work == 0 && cfg_.eventDriven) {
            uint64_t next = nextEventCycle(cycle);
            if (next <= cycle || next == UINT64_MAX)
                next = cycle + 1;  // nothing pending: crawl
            next = std::min(next, max_cycles);
            span = next - cycle;
            res_.skippedCycles += span - 1;
            if (span > 1) {
                ++res_.skipJumps;
                rrCursor_ = static_cast<int>(
                    (static_cast<uint64_t>(rrCursor_) +
                     (span - 1) % nstreams) % nstreams);
            }
            cycle = next;
        } else {
            ++cycle;
        }
        for (int k = 0; k < kNumStallKinds; ++k)
            stallTotals_[k] += cycleStalls_[k] * span;
    }
    if (!allDrained())
        simr_warn("core '%s' hit the cycle bound", cfg_.name.c_str());

    res_.cycles = cycle;

    // Totals reach the CounterSet once per run, not once per event; a
    // name appears iff it fired, like direct per-occurrence add().
    for (int k = 0; k < kNumHotCtrs; ++k)
        if (hotCtrs_[k] > 0)
            res_.counters.add(kHotNames[k], hotCtrs_[k]);
    for (int k = 0; k < kNumStallKinds; ++k)
        if (stallTotals_[k] > 0)
            res_.counters.add(kStallNames[k], stallTotals_[k]);

    // Snapshot the memory path and predictor state.
    res_.l1Stats = hier_.l1().stats();
    res_.mcuStats = mcu_.stats();
    res_.hierStats = hier_.stats();
    res_.tlbStats = hier_.tlb().stats();
    for (const auto &s : streams_) {
        res_.bpStats.lookups += s.bpred->stats().lookups;
        res_.bpStats.mispredicts += s.bpred->stats().mispredicts;
        res_.bpStats.majorityVotes += s.bpred->stats().majorityVotes;
        res_.bpStats.minorityLaneFlushes +=
            s.bpred->stats().minorityLaneFlushes;
    }

    auto &c = res_.counters;
    c.add(ctr::kBpMinorityFlush, res_.bpStats.minorityLaneFlushes);
    c.add(ctr::kMajorityVote, res_.bpStats.majorityVotes);
    c.add(ctr::kL1Access, hier_.l1().stats().accesses);
    c.add(ctr::kL1Miss, hier_.l1().stats().misses);
    c.add(ctr::kL2Access, hier_.l2().stats().accesses);
    c.add(ctr::kL2Miss, hier_.l2().stats().misses);
    c.add(ctr::kL3Access, hier_.l3().stats().accesses);
    c.add(ctr::kTlbLookup, hier_.tlb().stats().lookups);
    c.add(ctr::kNocFlitHops, hier_.noc().stats().flitHops);
    c.add(ctr::kDramAccess, hier_.dram().stats().accesses);

    return res_;
}

} // namespace simr::core
