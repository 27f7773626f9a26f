/**
 * @file
 * TimingCore: the trace-driven, cycle-level core model.
 *
 * One model covers all four design points of the paper by configuration:
 *
 *  - scalar CPU: 1 stream, 1 lane, OoO;
 *  - SMT-8 CPU: 8 streams share the pipeline, partitioned ROB,
 *    round-robin fetch;
 *  - RPU: 1 batch stream (from the lockstep engine), 8 SIMT lanes with
 *    sub-batch interleaving, MCU + banked L1, majority-voting BP,
 *    longer ALU/branch/L1 latencies (Table IV);
 *  - GPU-like: in-order issue, no speculation, lower clock, longer
 *    memory path.
 *
 * The model is dependency-accurate: an instruction issues when its
 * producers (by dynamic dependency distance) have completed, an FU port
 * is free, and -- in order mode -- all older instructions of its stream
 * have issued. Branch mispredictions stall the fetch of their stream
 * until resolution plus the frontend refill depth. Memory instructions
 * run through the MCU and the cache hierarchy at issue time.
 */

#ifndef SIMR_CORE_PIPELINE_H
#define SIMR_CORE_PIPELINE_H

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "common/stats.h"
#include "core/bpred.h"
#include "core/config.h"
#include "mem/coalescer.h"
#include "mem/hierarchy.h"
#include "trace/stream.h"

namespace simr::core
{

/** Everything a run produces; inputs to the energy model and figures. */
struct CoreResult
{
    std::string configName;
    double freqGhz = 2.5;
    uint64_t cycles = 0;
    uint64_t batchOps = 0;       ///< (batch) instructions retired
    uint64_t scalarInsts = 0;    ///< lane-level instructions retired
    uint64_t requests = 0;
    Histogram reqLatency;        ///< per-request latency in cycles
    CounterSet counters;

    /**
     * Simulator diagnostics, not reported statistics: how many of
     * `cycles` the event-driven loop jumped over instead of ticking,
     * and in how many jumps. Zero in the per-cycle reference mode --
     * deliberately excluded from the mode-equivalence gate, which
     * compares every *modeled* number above and below this block.
     */
    uint64_t skippedCycles = 0;
    uint64_t skipJumps = 0;

    // Memory-path snapshots for the figures.
    mem::CacheStats l1Stats;
    mem::McuStats mcuStats;
    mem::HierarchyStats hierStats;
    mem::TlbStats tlbStats;
    BpredStats bpStats;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(scalarInsts) /
            static_cast<double>(cycles) : 0.0;
    }

    double
    seconds() const
    {
        return static_cast<double>(cycles) / (freqGhz * 1e9);
    }

    /** Requests/second for one core at the configured clock. */
    double
    throughputPerCore() const
    {
        double s = seconds();
        return s > 0 ? static_cast<double>(requests) / s : 0.0;
    }

    /**
     * Convert a latency measured in this core's cycles to seconds. The
     * single definition of the cycles->seconds conversion: ratios
     * between cores at different clocks must go through this (dividing
     * raw cycle counts compares apples to oranges).
     */
    double
    cyclesToSeconds(double latency_cycles) const
    {
        return latency_cycles / (freqGhz * 1e9);
    }

    /** Mean request latency in seconds. */
    double
    meanLatencySeconds() const
    {
        return cyclesToSeconds(reqLatency.mean());
    }

    /** Mean request latency in microseconds. */
    double
    meanLatencyUs() const
    {
        return meanLatencySeconds() * 1e6;
    }
};

/** The cycle-level core. */
class TimingCore
{
  public:
    explicit TimingCore(const CoreConfig &cfg);
    ~TimingCore();

    /**
     * Run the attached streams to exhaustion.
     * @param streams one stream per hardware thread (1 for CPU/RPU/GPU,
     *        smtThreads for SMT)
     * @param max_cycles safety bound
     */
    CoreResult run(const std::vector<trace::DynStream *> &streams,
                   uint64_t max_cycles = 2000000000ULL);

    const CoreConfig &config() const { return cfg_; }

  private:
    /** ROB capacity bound: the ready masks are four 64-bit words. */
    static constexpr size_t kMaxRob = 256;
    static constexpr size_t kMaskWords = kMaxRob / 64;
    static constexpr uint16_t kNoLink = 0xffff;

    /** FU port groups; ops of FuClass::None claim no port. */
    enum PortGroup : uint8_t {
        kPortInt = 0, kPortMul, kPortFp, kPortSimd, kPortMem, kPortBr,
        kNumPortGroups,
        kPortNone = kNumPortGroups,
    };

    /**
     * The issue stage's view of one in-flight op: its timing state plus
     * the op facts decoded once at dispatch. The DynOp payload lives
     * apart, in ops_, and only executeAt() reads it after dispatch.
     *
     * Wakeup links: an op waiting on a not-yet-issued producer is on
     * that producer's `waiters` list, once per distinct source; link id
     * 2 * slot + k names source k of the op in ROB slot `slot`.
     */
    struct RobEntry
    {
        uint64_t seq = 0;
        uint64_t doneCycle = 0;  ///< UINT64_MAX until issued
        uint64_t readyAt = 0;    ///< latest completion among producers
        uint64_t reqStart = 0;   ///< latency clock of this op's request
        uint16_t waiters = kNoLink;          ///< consumers to wake
        uint16_t next[2] = {kNoLink, kNoLink};  ///< waiter-list links
        uint16_t wakeNext = kNoLink;  ///< next slot in its wheel list
        uint8_t stream = 0;
        uint8_t port = kPortNone;
        uint8_t occupancy = 1;   ///< issue slots on its FU port
        uint8_t active = 1;      ///< active lanes, at least 1
        uint8_t pending = 0;     ///< producers not yet issued
        uint8_t ended = 0;       ///< requests that complete with it
        bool isMem = false;
        bool writesReg = false;
        bool mispredicted = false;
    };

    struct StreamCtx
    {
        trace::DynStream *stream = nullptr;
        std::unique_ptr<BatchBpred> bpred;
        uint64_t fetchedSeq = 0;      ///< ops fetched so far
        uint64_t issuedSeq = 0;       ///< in-order issue cursor
        uint64_t committedSeq = 0;    ///< last op retired
        /**
         * ROB slot of each in-flight op, by seq (power-of-two ring of at
         * least robEntries slots: a stream never has more in flight).
         * A producer at or below committedSeq is complete and is not
         * looked up.
         */
        std::vector<uint8_t> slotOf;
        bool exhausted = false;
        bool waitingBranch = false;   ///< unresolved blocking branch
        uint64_t stallUntil = 0;
        int inFlight = 0;             ///< ROB partition occupancy
        uint64_t reqStart = 0;
        uint64_t icacheAccum = 0;     ///< scaled i-miss accumulator
    };

    bool allDrained() const;

    /** @name Per-cycle stages. Each returns the ops it processed. */
    /// @{
    int fetch(uint64_t cycle);
    /** Unpark the refilling streams whose stallUntil has passed. */
    void expireRefills(uint64_t cycle);
    int issue(uint64_t cycle);
    int commit(uint64_t cycle);
    /// @}

    /** Decode the op just fetched into `slot` and link its producers. */
    void dispatch(uint64_t cycle, size_t slot, StreamCtx &s, int stream,
                  bool mispredicted);

    /**
     * Try to issue the dependence-ready op in `slot`: LSQ space, then an
     * FU port (each failure counts its stall), then execute and wake
     * its waiters. False if it stays unissued this cycle.
     */
    bool tryIssue(uint64_t cycle, size_t slot);

    /** Set the op's ready bit if its producers are done by `cycle`,
     *  else queue its wakeup. */
    void wakeAt(uint64_t cycle, size_t slot);

    /** Set the ready bits of the wakeups due at `cycle`. */
    void wakeDue(uint64_t cycle);

    /** Earliest queued wakeup after `cycle`; UINT64_MAX if none. */
    uint64_t nextWake(uint64_t cycle) const;

    /** Compute execution latency and perform side effects at issue. */
    uint32_t executeAt(uint64_t cycle, const trace::DynOp &op,
                       uint64_t active);

    /** Claim a port of the group; false if none is free this cycle. */
    bool claimPort(uint64_t cycle, uint8_t group, uint32_t occupancy);

    /** Count a HotCtr event into the flat whole-run array. */
    void hot(int k, uint64_t n = 1);

    /** @name Age-ordered ROB masks: bit a is the a-th oldest entry. */
    /// @{
    size_t ageOf(size_t slot) const;
    size_t slotAt(size_t age) const;
    /** First age in [from, to) that is unissued (and, if `ready`,
     *  dependence-ready); `to` when there is none. */
    size_t nextUnissued(size_t from, size_t to, bool ready) const;
    /** Unissued, dependence-blocked entries with age in [from, to). */
    size_t countBlocked(size_t from, size_t to) const;
    /// @}

    /**
     * Stall-counter kinds, recorded per cycle into a scratch array so a
     * no-progress cycle's pattern can be replayed N times in O(1) when
     * the loop skips N identical cycles, and so the hot loop never
     * touches the CounterSet map: totals land in `res_.counters` once,
     * at the end of run(). Both loop modes share this one accounting
     * path; the per-cycle reference (eventDriven = false) differs from
     * the event-driven loop only in never skipping (every span is 1).
     */
    enum StallKind {
        kStallDep = 0,   ///< operand not complete
        kStallLsq,       ///< LSQ full
        kStallPort,      ///< FU ports busy
        kStallFeBranch,  ///< fetch parked on an unresolved branch
        kStallFeRefill,  ///< fetch parked on a frontend refill
        kStallRobFull,   ///< ROB (or SMT partition) full
        kNumStallKinds,
    };

    /**
     * Per-op event counters touched on the fetch/issue/commit hot path.
     * They accumulate in a flat array (one add per event instead of one
     * string-keyed map lookup per event, tens of millions per run) and
     * fold into `res_.counters` once at the end of run(); a name
     * appears in the CounterSet iff its total is nonzero.
     */
    enum HotCtr {
        kHotFetch = 0, kHotDecode, kHotRename, kHotRobWrite,
        kHotSimtSelect, kHotPathSwitch, kHotBpLookup, kHotBpMispredict,
        kHotIcacheMiss,
        kHotIqWakeup, kHotRegRead, kHotRegWrite,
        kHotIntOps, kHotMulOps, kHotDivOps, kHotFpOps, kHotSimdOps,
        kHotBranchOps, kHotSyscalls, kHotLsqInsert, kHotMcuInsts,
        kHotRobCommit,
        kNumHotCtrs,
    };

    /**
     * First cycle after `cycle` at which a stalled core can change
     * state: the earliest queued wakeup, the ROB head's completion
     * (commit), the earliest frontend-refill expiry, the earliest LSQ
     * retirement (when something stalled on the LSQ this cycle) and
     * the earliest FU-port release (when something port-starved this
     * cycle). UINT64_MAX when nothing is pending (the caller crawls one
     * cycle, exactly like the reference loop would).
     */
    uint64_t nextEventCycle(uint64_t cycle);

    CoreConfig cfg_;
    mem::AddressMap map_;
    mem::Mcu mcu_;
    mem::MemoryHierarchy hier_;

    /** What dispatch needs to know of an opcode, decoded once. */
    struct OpFacts
    {
        uint8_t port = kPortNone;
        bool perLane = false;   ///< occupies ceil(active / lanes) slots
        bool isMem = false;
        bool writesReg = false;
    };
    std::array<OpFacts, static_cast<size_t>(isa::Op::NumOps)> opFacts_;
    /** Issue slots of a per-lane op, by active-lane count. */
    std::array<uint8_t, trace::kMaxBatch + 1> laneSlots_;

    std::vector<StreamCtx> streams_;
    std::vector<RobEntry> rob_;        ///< ring buffer
    std::vector<trace::DynOp> ops_;    ///< payload of each ROB slot
    size_t robHead_ = 0;
    size_t robCount_ = 0;
    uint64_t unissued_[kMaskWords] = {};  ///< by age
    uint64_t ready_[kMaskWords] = {};     ///< producers done, by age
    uint64_t seqMask_ = 0;     ///< slotOf ring index mask
    int rrCursor_ = 0;
    /** @name Fetch gating, one bit per stream. */
    /// @{
    uint64_t allStreams_ = 0;
    uint64_t exhaustedMask_ = 0;
    uint64_t branchMask_ = 0;   ///< parked on an unresolved branch
    uint64_t refillMask_ = 0;   ///< parked until stallUntil
    uint64_t refillExpiry_ = 0; ///< earliest stallUntil in refillMask_
    /// @}
    int partition_ = 0;        ///< per-stream ROB share
    int perStreamFetch_ = 0;   ///< per-stream fetch slots per cycle
    uint64_t icacheStep_ = 0;  ///< per-op i-miss accumulator increment

    std::vector<uint64_t> ports_[kNumPortGroups];  ///< free-at cycles
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> memInFlight_;
    /**
     * The wake queue: ops whose operands complete after the current
     * cycle, keyed by readyAt. An op joins when its last producer
     * issues (or at dispatch, if every producer already has) and its
     * ready bit is set when the clock reaches readyAt. Wakeups less
     * than kWheel cycles out sit in a timing wheel, one list of ROB
     * slots per cycle (linked through RobEntry::wakeNext) with a bitmap
     * of the busy cycles; later ones in a min-heap of
     * (readyAt << 8 | slot).
     */
    static constexpr size_t kWheel = 512;
    std::array<uint16_t, kWheel> wheel_;
    uint64_t wheelBusy_[kWheel / 64] = {};
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> farWake_;
    std::vector<mem::MemAccess> scratchAccesses_;

    uint64_t cycleStalls_[kNumStallKinds] = {};  ///< this cycle's pattern
    uint64_t stallTotals_[kNumStallKinds] = {};  ///< whole-run totals
    uint64_t hotCtrs_[kNumHotCtrs] = {};         ///< whole-run totals
    uint64_t portNextFree_ = 0;  ///< earliest release among starved FUs

    CoreResult res_;
};

} // namespace simr::core

#endif // SIMR_CORE_PIPELINE_H
