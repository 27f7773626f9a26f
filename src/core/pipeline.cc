#include "core/pipeline.h"

#include <algorithm>
#include <bit>

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
    simr_assert(cfg_.robEntries <= static_cast<int>(kMaxRob),
                "ROB larger than the issue masks");
    simr_assert(cfg_.smtThreads <= 64, "SMT degree beyond 64");
    simr_assert(cfg_.lanes >= 1 && cfg_.issueWidth >= 1 &&
                cfg_.schedWindow >= 1 && cfg_.commitWidth < 64,
                "bad issue configuration");
    rob_.resize(static_cast<size_t>(cfg_.robEntries));
    seqMask_ = std::bit_ceil(rob_.size()) - 1;
    for (size_t i = 0; i < opFacts_.size(); ++i) {
        const auto op = static_cast<isa::Op>(i);
        const isa::OpInfo &info = isa::opInfo(op);
        OpFacts &f = opFacts_[i];
        f.isMem = info.isMem;
        f.writesReg = info.writesReg;
        switch (info.fu) {
          case isa::FuClass::IntAlu: f.port = kPortInt; break;
          case isa::FuClass::IntMul:
          case isa::FuClass::IntDiv: f.port = kPortMul; break;
          case isa::FuClass::FpAlu: f.port = kPortFp; break;
          case isa::FuClass::SimdUnit: f.port = kPortSimd; break;
          case isa::FuClass::LoadStore: f.port = kPortMem; break;
          case isa::FuClass::BranchUnit:
          case isa::FuClass::SysUnit: f.port = kPortBr; break;
          case isa::FuClass::None: f.port = kPortNone; break;
        }
        // Sub-batch interleaving: a per-lane computation occupies its
        // FU for ceil(active / lanes) issue slots; inactive lanes are
        // skipped (Fig. 8a). Pure control transfers (handled by the
        // convergence optimizer), fences and memory ops take one slot:
        // the LSQ allocates a single 8-wide row per batch instruction
        // (Fig. 9) and the banked L1 models any access serialization.
        switch (op) {
          case isa::Op::IAlu:
          case isa::Op::IMul:
          case isa::Op::IDiv:
          case isa::Op::FAlu:
          case isa::Op::Simd:
          case isa::Op::Branch:
            f.perLane = true;
            break;
          default:
            f.perLane = false;
            break;
        }
    }
    for (size_t a = 0; a < laneSlots_.size(); ++a)
        laneSlots_[a] = static_cast<uint8_t>(
            (static_cast<int>(a) + cfg_.lanes - 1) / cfg_.lanes);
    ops_.resize(rob_.size());
    ports_[kPortInt].assign(static_cast<size_t>(cfg_.intAluPorts), 0);
    ports_[kPortMul].assign(static_cast<size_t>(cfg_.mulDivPorts), 0);
    ports_[kPortFp].assign(static_cast<size_t>(cfg_.simdPorts), 0);
    ports_[kPortSimd].assign(static_cast<size_t>(cfg_.simdPorts), 0);
    ports_[kPortMem].assign(static_cast<size_t>(cfg_.memPorts), 0);
    ports_[kPortBr].assign(static_cast<size_t>(cfg_.branchPorts), 0);
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
    return robCount_ == 0 && exhaustedMask_ == allStreams_;
}

inline bool
TimingCore::claimPort(uint64_t cycle, uint8_t group, uint32_t occupancy)
{
    if (group == kPortNone)
        return true;
    uint64_t soonest = UINT64_MAX;
    for (auto &free_at : ports_[group]) {
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

inline void
TimingCore::hot(int k, uint64_t n)
{
    hotCtrs_[k] += n;
}

uint32_t
TimingCore::executeAt(uint64_t cycle, const DynOp &op, uint64_t active)
{
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

inline size_t
TimingCore::ageOf(size_t slot) const
{
    return slot >= robHead_ ? slot - robHead_
                            : slot + rob_.size() - robHead_;
}

inline size_t
TimingCore::slotAt(size_t age) const
{
    size_t slot = robHead_ + age;
    return slot >= rob_.size() ? slot - rob_.size() : slot;
}

inline size_t
TimingCore::nextUnissued(size_t from, size_t to, bool ready) const
{
    // Ages at and past robCount_ have no bits set, so the last word
    // needs no upper mask.
    if (from >= to)
        return to;
    size_t w = from >> 6;
    uint64_t bits = unissued_[w] & (ready ? ready_[w] : ~0ULL) &
        (~0ULL << (from & 63));
    while (bits == 0) {
        if (++w * 64 >= to)
            return to;
        bits = unissued_[w] & (ready ? ready_[w] : ~0ULL);
    }
    return std::min(to, w * 64 + static_cast<size_t>(
                                     std::countr_zero(bits)));
}

inline size_t
TimingCore::countBlocked(size_t from, size_t to) const
{
    size_t n = 0;
    while (from < to) {
        size_t w = from >> 6;
        size_t end = std::min(to, w * 64 + 64);
        uint64_t bits = (unissued_[w] & ~ready_[w]) >> (from & 63);
        if (end - from < 64)
            bits &= (1ULL << (end - from)) - 1;
        n += static_cast<size_t>(std::popcount(bits));
        from = end;
    }
    return n;
}

inline void
TimingCore::wakeAt(uint64_t cycle, size_t slot)
{
    const RobEntry &e = rob_[slot];
    if (e.readyAt <= cycle) {
        size_t age = ageOf(slot);
        ready_[age >> 6] |= 1ULL << (age & 63);
    } else if (e.readyAt - cycle < kWheel) {
        size_t b = e.readyAt & (kWheel - 1);
        rob_[slot].wakeNext = wheel_[b];
        wheel_[b] = static_cast<uint16_t>(slot);
        wheelBusy_[b >> 6] |= 1ULL << (b & 63);
    } else {
        farWake_.push(e.readyAt << 8 | slot);
    }
}

inline void
TimingCore::wakeDue(uint64_t cycle)
{
    auto setReady = [this](size_t slot) {
        size_t age = ageOf(slot);
        ready_[age >> 6] |= 1ULL << (age & 63);
    };
    while (!farWake_.empty() && (farWake_.top() >> 8) <= cycle) {
        setReady(static_cast<size_t>(farWake_.top() & 0xff));
        farWake_.pop();
    }
    // The wheel holds only wakeups less than kWheel cycles out, and the
    // clock never jumps past one (nextEventCycle), so this cycle's
    // bucket holds exactly the wakeups due now.
    size_t b = cycle & (kWheel - 1);
    for (uint16_t slot = wheel_[b]; slot != kNoLink;
         slot = rob_[slot].wakeNext)
        setReady(slot);
    wheel_[b] = kNoLink;
    wheelBusy_[b >> 6] &= ~(1ULL << (b & 63));
}

uint64_t
TimingCore::nextWake(uint64_t cycle) const
{
    uint64_t next = farWake_.empty() ? UINT64_MAX : farWake_.top() >> 8;
    // First busy bucket after this cycle's, scanning the bitmap once
    // around from there.
    const size_t start = (cycle + 1) & (kWheel - 1);
    for (size_t i = 0; i <= kWheel / 64; ++i) {
        size_t w = ((start >> 6) + i) % (kWheel / 64);
        uint64_t bits = wheelBusy_[w];
        if (i == 0)
            bits &= ~0ULL << (start & 63);
        else if (i == kWheel / 64)
            bits &= ~(~0ULL << (start & 63));
        if (bits) {
            size_t b = w * 64 + static_cast<size_t>(std::countr_zero(bits));
            uint64_t ahead = (b - start) & (kWheel - 1);
            return std::min(next, cycle + 1 + ahead);
        }
    }
    return next;
}

void
TimingCore::dispatch(uint64_t cycle, size_t slot, StreamCtx &s, int stream,
                     bool mispredicted)
{
    const DynOp &op = ops_[slot];
    RobEntry &e = rob_[slot];
    e.seq = ++s.fetchedSeq;
    e.doneCycle = UINT64_MAX;
    e.readyAt = 0;
    e.reqStart = s.reqStart;
    e.waiters = kNoLink;
    e.stream = static_cast<uint8_t>(stream);
    e.mispredicted = mispredicted;
    e.active = static_cast<uint8_t>(std::max(op.activeLanes(), 1));
    e.ended = static_cast<uint8_t>(trace::popcount(op.endMask));

    const OpFacts &f = opFacts_[static_cast<size_t>(op.si->op)];
    e.port = f.port;
    e.isMem = f.isMem;
    e.writesReg = f.writesReg;
    e.occupancy = f.perLane ? laneSlots_[e.active] : 1;

    // Link to in-flight producers. A producer the stream already
    // retired is complete; an issued one contributes its doneCycle; an
    // unissued one takes this op onto its waiter list.
    e.pending = 0;
    const uint16_t deps[2] = {op.dep1, op.dep2 != op.dep1 ? op.dep2
                                                           : uint16_t(0)};
    for (int k = 0; k < 2; ++k) {
        e.next[k] = kNoLink;
        if (deps[k] == 0 || e.seq <= deps[k])
            continue;
        uint64_t pseq = e.seq - deps[k];
        if (pseq <= s.committedSeq)
            continue;
        RobEntry &p = rob_[s.slotOf[pseq & seqMask_]];
        simr_dassert(p.seq == pseq, "producer slot out of date");
        if (p.doneCycle != UINT64_MAX) {
            e.readyAt = std::max(e.readyAt, p.doneCycle);
        } else {
            e.next[k] = p.waiters;
            p.waiters = static_cast<uint16_t>(2 * slot + k);
            ++e.pending;
        }
    }
    s.slotOf[e.seq & seqMask_] = static_cast<uint8_t>(slot);

    size_t age = robCount_;
    unissued_[age >> 6] |= 1ULL << (age & 63);
    ready_[age >> 6] &= ~(1ULL << (age & 63));
    if (e.pending == 0)
        wakeAt(cycle, slot);
}

namespace
{

/** Bits [0, k) of a stream mask. */
inline uint64_t
lowBits(int k)
{
    return k >= 64 ? ~0ULL : (1ULL << k) - 1;
}

} // namespace

void
TimingCore::expireRefills(uint64_t cycle)
{
    uint64_t next = UINT64_MAX;
    for (uint64_t m = refillMask_; m; m &= m - 1) {
        int si = std::countr_zero(m);
        uint64_t until = streams_[static_cast<size_t>(si)].stallUntil;
        if (cycle >= until)
            refillMask_ &= ~(1ULL << si);
        else
            next = std::min(next, until);
    }
    refillExpiry_ = next;
}

int
TimingCore::fetch(uint64_t cycle)
{
    int budget = cfg_.fetchWidth;
    const int n = static_cast<int>(streams_.size());
    int fetched = 0;

    // SMT partitions the frontend: each hardware thread gets its slice
    // of the fetch bandwidth per cycle (Table IV: 1-wide per thread at
    // SMT-8), which is what costs SMT its single-thread latency.
    //
    // Round-robin from rrCursor_ until the fetch slots run out. A
    // stream parked at the start of the cycle (on an unresolved branch
    // or a refill) records its stall if the round reaches it, without
    // a visit; an exhausted one records nothing. The others are visited
    // in round-robin order.
    if (cycle >= refillExpiry_)
        expireRefills(cycle);
    const uint64_t branch0 = branchMask_;
    const uint64_t refill0 = refillMask_;
    const uint64_t open = allStreams_ & ~(branch0 | refill0 | exhaustedMask_);
    int last = -1;  // the stream whose visit spent the last slot
    for (uint64_t half : {open & ~lowBits(rrCursor_),
                          open & lowBits(rrCursor_)}) {
        for (; half && budget > 0; half &= half - 1) {
            const int si = std::countr_zero(half);
            StreamCtx &s = streams_[static_cast<size_t>(si)];
            int stream_budget = std::min(budget, perStreamFetch_);
            while (stream_budget > 0) {
                if (s.exhausted)
                    break;
                if (s.waitingBranch || cycle < s.stallUntil) {
                    StallKind k = s.waitingBranch ? kStallFeBranch
                                                  : kStallFeRefill;
                    ++cycleStalls_[k];
                    break;
                }
                if (robCount_ >= rob_.size() || s.inFlight >= partition_) {
                    ++cycleStalls_[kStallRobFull];
                    break;
                }

                // The stream writes straight into the free ROB slot.
                size_t slot = robHead_ + robCount_;
                if (slot >= rob_.size())
                    slot -= rob_.size();
                DynOp &op = ops_[slot];
                if (!s.stream->next(op)) {
                    s.exhausted = true;
                    break;
                }
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

                if (cfg_.batchWidth > 1 && op.pathSwitch)
                    hot(kHotPathSwitch);

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

                dispatch(cycle, slot, s, si, blocks_fetch);
                ++robCount_;
                ++s.inFlight;
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
            // Park the stream for the next cycles if this visit left it
            // waiting.
            const uint64_t bit = 1ULL << si;
            if (s.exhausted) {
                exhaustedMask_ |= bit;
            } else if (s.waitingBranch) {
                branchMask_ |= bit;
            } else if (s.stallUntil > cycle) {
                refillMask_ |= bit;
                refillExpiry_ = std::min(refillExpiry_, s.stallUntil);
            }
            if (budget == 0)
                last = si;
        }
    }
    const uint64_t reached = last < 0 ? allStreams_
        : last >= rrCursor_ ? lowBits(last + 1) & ~lowBits(rrCursor_)
                            : ~lowBits(rrCursor_) | lowBits(last + 1);
    cycleStalls_[kStallFeBranch] +=
        static_cast<uint64_t>(std::popcount(branch0 & reached));
    cycleStalls_[kStallFeRefill] +=
        static_cast<uint64_t>(std::popcount(refill0 & reached));
    if (++rrCursor_ == n)
        rrCursor_ = 0;
    // Frontend accounting: once per (batch) instruction.
    const uint64_t f = static_cast<uint64_t>(fetched);
    hot(kHotFetch, f);
    hot(kHotDecode, f);
    hot(kHotRename, f);
    hot(kHotRobWrite, f);
    if (cfg_.batchWidth > 1)
        hot(kHotSimtSelect, f);
    return fetched;
}

bool
TimingCore::tryIssue(uint64_t cycle, size_t slot)
{
    RobEntry &e = rob_[slot];
    if (e.isMem &&
        memInFlight_.size() >= static_cast<size_t>(cfg_.lsqEntries)) {
        ++cycleStalls_[kStallLsq];
        return false;
    }
    if (!claimPort(cycle, e.port, e.occupancy)) {
        ++cycleStalls_[kStallPort];
        return false;
    }

    uint32_t lat = executeAt(cycle, ops_[slot], e.active);
    e.doneCycle = cycle + e.occupancy - 1 + lat;
    size_t age = ageOf(slot);
    unissued_[age >> 6] &= ~(1ULL << (age & 63));

    // Wake the consumers that waited for this issue. Each is younger,
    // so one whose operands are now complete (a zero-latency producer)
    // is still ahead of this cycle's scan.
    for (uint16_t l = e.waiters; l != kNoLink;) {
        size_t ws = l >> 1;
        RobEntry &w = rob_[ws];
        l = w.next[l & 1];
        w.readyAt = std::max(w.readyAt, e.doneCycle);
        if (--w.pending == 0)
            wakeAt(cycle, ws);
    }
    e.waiters = kNoLink;

    StreamCtx &s = streams_[e.stream];
    if (cfg_.inOrder)
        s.issuedSeq = e.seq;
    // Register file activity (per active lane).
    hot(kHotRegRead, 2 * uint64_t{e.active});
    if (e.writesReg)
        hot(kHotRegWrite, e.active);

    if (e.mispredicted) {
        // Fetch resumes after resolution plus the refill depth.
        s.stallUntil = e.doneCycle +
            static_cast<uint64_t>(cfg_.frontendDepth);
        s.waitingBranch = false;
        branchMask_ &= ~(1ULL << e.stream);
        refillMask_ |= 1ULL << e.stream;
        refillExpiry_ = std::min(refillExpiry_, s.stallUntil);
    }
    return true;
}

int
TimingCore::issue(uint64_t cycle)
{
    // Retire completed memory transactions from the LSQ occupancy.
    while (!memInFlight_.empty() && memInFlight_.top() <= cycle)
        memInFlight_.pop();
    // Ops whose last operand completes by now become ready.
    wakeDue(cycle);

    // The scan covers unissued entries oldest first and ends at the
    // schedWindow-th of them, or at the issue that takes the last
    // issueWidth slot. Every dependence-blocked entry it passes counts
    // one kStallDep; ready ones try to issue.
    const size_t window = static_cast<size_t>(cfg_.schedWindow);
    int budget = cfg_.issueWidth;
    int issued = 0;
    size_t examined = 0;
    uint64_t dep = 0;

    if (cfg_.inOrder) {
        // Only a stream's oldest unissued op may issue; the others are
        // passed without counting. A stream whose head fails issues
        // nothing more this cycle, so the scan ends once every stream's
        // head has failed.
        size_t stuck = 0;
        for (size_t a = nextUnissued(0, robCount_, false); a < robCount_;
             a = nextUnissued(a + 1, robCount_, false)) {
            ++examined;
            size_t slot = slotAt(a);
            const RobEntry &e = rob_[slot];
            if (e.seq == streams_[e.stream].issuedSeq + 1) {
                bool ok = false;
                if (!(ready_[a >> 6] >> (a & 63) & 1))
                    ++dep;
                else
                    ok = tryIssue(cycle, slot);
                if (ok) {
                    ++issued;
                    if (--budget == 0)
                        break;
                } else if (++stuck == streams_.size()) {
                    break;
                }
            }
            if (examined == window)
                break;
        }
    } else {
        // Out of order: visit only ready entries. The blocked entries
        // between two of them are counted, not visited.
        size_t a = 0;
        while (true) {
            size_t c = nextUnissued(a, robCount_, true);
            size_t blocked = countBlocked(a, c);
            if (examined + blocked >= window) {
                dep += window - examined;
                break;
            }
            examined += blocked;
            dep += blocked;
            if (c == robCount_)
                break;
            ++examined;
            if (tryIssue(cycle, slotAt(c))) {
                ++issued;
                if (--budget == 0)
                    break;
            }
            if (examined == window)
                break;
            a = c + 1;
        }
    }
    cycleStalls_[kStallDep] += dep;
    hot(kHotIqWakeup, static_cast<uint64_t>(issued));
    return issued;
}

int
TimingCore::commit(uint64_t cycle)
{
    int budget = cfg_.commitWidth;
    int committed = 0;
    while (robCount_ > 0 && budget > 0) {
        RobEntry &e = rob_[robHead_];
        if (e.doneCycle > cycle)
            break;
        StreamCtx &s = streams_[e.stream];

        res_.scalarInsts += e.active;

        if (e.ended) {
            res_.reqLatency.addN(static_cast<double>(cycle - e.reqStart),
                                 e.ended);
            res_.requests += e.ended;
        }

        if (++robHead_ == rob_.size())
            robHead_ = 0;
        --robCount_;
        --s.inFlight;
        s.committedSeq = e.seq;
        --budget;
        ++committed;
    }
    hot(kHotRobCommit, static_cast<uint64_t>(committed));
    res_.batchOps += static_cast<uint64_t>(committed);
    // The masks are by age: retiring k entries shifts them down by k.
    if (committed > 0) {
        const unsigned k = static_cast<unsigned>(committed);  // < 64
        for (size_t w = 0; w < kMaskWords; ++w) {
            uint64_t hi_u = w + 1 < kMaskWords ? unissued_[w + 1] : 0;
            uint64_t hi_r = w + 1 < kMaskWords ? ready_[w + 1] : 0;
            unissued_[w] = unissued_[w] >> k | hi_u << (63 - k) << 1;
            ready_[w] = ready_[w] >> k | hi_r << (63 - k) << 1;
        }
    }
    return committed;
}

uint64_t
TimingCore::nextEventCycle(uint64_t cycle)
{
    // A queued wakeup makes an op ready; the ROB head's completion lets
    // commit proceed. Other completions change nothing a stalled cycle
    // records: a consumer waits for its last producer, which is in the
    // wake queue or not issued yet, and commit waits for the head.
    uint64_t next = nextWake(cycle);
    if (robCount_ > 0)
        next = std::min(next, rob_[robHead_].doneCycle);

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
        streams_[i].slotOf.assign(seqMask_ + 1, 0);
    }
    robHead_ = 0;
    robCount_ = 0;
    std::fill(std::begin(unissued_), std::end(unissued_), 0);
    std::fill(std::begin(ready_), std::end(ready_), 0);
    rrCursor_ = 0;
    allStreams_ = lowBits(static_cast<int>(streams_.size()));
    exhaustedMask_ = branchMask_ = refillMask_ = 0;
    refillExpiry_ = UINT64_MAX;
    partition_ = cfg_.robEntries / static_cast<int>(streams_.size());
    perStreamFetch_ =
        std::max(1, cfg_.fetchWidth / static_cast<int>(streams_.size()));
    {
        // Same expression the per-op path used to evaluate, hoisted:
        // the accumulator step is a run constant.
        double mpki = cfg_.icacheMpki *
            (cfg_.smtThreads > 1 ? cfg_.smtIcacheFactor : 1.0);
        icacheStep_ = static_cast<uint64_t>(mpki * 1000.0);
    }
    for (auto &group : ports_)
        std::fill(group.begin(), group.end(), 0);
    while (!memInFlight_.empty())
        memInFlight_.pop();
    wheel_.fill(kNoLink);
    std::fill(std::begin(wheelBusy_), std::end(wheelBusy_), 0);
    while (!farWake_.empty())
        farWake_.pop();
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
        // reason until the next event fires (dependence wakeups are
        // bounded by the wake queue's head, commit by the ROB head's
        // doneCycle, LSQ occupancy by memInFlight_'s head, port
        // starvation by the earliest release, refills by stallUntil). So ticking through the stall would
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
