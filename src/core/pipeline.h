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
    struct RobEntry
    {
        trace::DynOp op;
        int stream = 0;
        uint64_t seq = 0;
        uint64_t doneCycle = 0;
        uint64_t reqStart = 0;   ///< latency clock of this op's request
        bool issued = false;
        bool mispredicted = false;
    };

    struct StreamCtx
    {
        trace::DynStream *stream = nullptr;
        std::unique_ptr<BatchBpred> bpred;
        uint64_t fetchedSeq = 0;      ///< ops fetched so far
        uint64_t issuedSeq = 0;       ///< in-order issue cursor
        std::vector<uint64_t> doneAt; ///< doneCycle ring, by seq
        bool exhausted = false;
        bool waitingBranch = false;   ///< unresolved blocking branch
        uint64_t stallUntil = 0;
        int inFlight = 0;             ///< ROB partition occupancy
        uint64_t reqStart = 0;
        uint64_t icacheAccum = 0;     ///< scaled i-miss accumulator
        trace::DynOp pending;
        bool hasPending = false;
    };

    bool allDrained() const;

    /** @name Per-cycle stages. Each returns the ops it processed. */
    /// @{
    int fetch(uint64_t cycle);
    int issue(uint64_t cycle);
    int commit(uint64_t cycle);
    /// @}

    /** Compute execution latency and perform side effects at issue. */
    uint32_t executeAt(uint64_t cycle, RobEntry &e);

    /** Claim an FU port of the op's class; false if none this cycle. */
    bool claimPort(uint64_t cycle, const trace::DynOp &op,
                   uint32_t occupancy);

    /** Count a HotCtr event into the flat whole-run array. */
    void hot(int k, uint64_t n = 1);

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
     * state: the earliest completion among issued in-flight ops (from
     * the lazy `completions_` heap), the earliest frontend-refill
     * expiry, the earliest LSQ retirement (when something stalled on
     * the LSQ this cycle) and the earliest FU-port release (when
     * something port-starved this cycle). UINT64_MAX when nothing is
     * pending (the caller crawls one cycle, exactly like the reference
     * loop would).
     */
    uint64_t nextEventCycle(uint64_t cycle);

    static constexpr size_t kDoneRing = 8192;

    CoreConfig cfg_;
    mem::AddressMap map_;
    mem::Mcu mcu_;
    mem::MemoryHierarchy hier_;

    std::vector<StreamCtx> streams_;
    std::vector<RobEntry> rob_;      ///< ring buffer
    size_t robHead_ = 0;
    size_t robCount_ = 0;
    /**
     * Length of the longest known all-issued prefix of the ROB (from
     * robHead_). The issue scan starts past it -- in memory-bound
     * phases most unretired entries are issued ops parked at the head
     * waiting on a long-latency load, and rescanning them every cycle
     * is the single hottest loop in the simulator. Grows when the entry
     * at its boundary issues, shrinks by one per retirement.
     */
    size_t issuedPrefix_ = 0;
    int rrCursor_ = 0;
    uint64_t icacheStep_ = 0;  ///< per-op i-miss accumulator increment

    std::vector<uint64_t> intPorts_, mulPorts_, simdPorts_, memPorts_,
        brPorts_, fpPorts_;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> memInFlight_;
    /**
     * Lazy min-heap of issued ops' doneCycles, pushed at issue and
     * popped when stale (past). Only read by nextEventCycle(): the
     * head is the earliest in-flight completion, without an O(ROB)
     * sweep on every no-progress cycle.
     */
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> completions_;
    std::vector<mem::MemAccess> scratchAccesses_;

    uint64_t cycleStalls_[kNumStallKinds] = {};  ///< this cycle's pattern
    uint64_t stallTotals_[kNumStallKinds] = {};  ///< whole-run totals
    uint64_t hotCtrs_[kNumHotCtrs] = {};         ///< whole-run totals
    uint64_t portNextFree_ = 0;  ///< earliest release among starved FUs

    CoreResult res_;
};

} // namespace simr::core

#endif // SIMR_CORE_PIPELINE_H
