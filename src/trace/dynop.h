/**
 * @file
 * DynOp: one dynamic instruction as consumed by the timing cores and the
 * SIMT-efficiency analyzer.
 *
 * A DynOp is either a scalar instruction (mask == 1 lane) or a batch
 * instruction (one static instruction executed in lockstep by every active
 * lane, GPU-warp style). The timing models pull DynOps from a DynStream
 * one at a time, so traces are never materialized; memory use stays flat
 * regardless of request counts.
 */

#ifndef SIMR_TRACE_DYNOP_H
#define SIMR_TRACE_DYNOP_H

#include <cstdint>

#include "isa/isa.h"
#include "isa/program.h"

namespace simr::trace
{

/** Maximum SIMT batch width supported by the RPU model (paper: 32). */
constexpr int kMaxBatch = 32;

/** Active-mask type; bit i = lane i active. */
using Mask = uint32_t;

/** Count active lanes in a mask. */
inline int popcount(Mask m) { return __builtin_popcount(m); }

/** One dynamic (possibly batched) instruction. */
struct DynOp
{
    const isa::StaticInst *si = nullptr;
    isa::Pc pc = 0;
    Mask mask = 0;              ///< active lanes
    Mask takenMask = 0;         ///< per-lane branch outcome (Branch only)
    uint8_t callDepth = 0;      ///< call depth when issued (MinSP context)
    uint16_t dep1 = 0;          ///< dyn distance to src1 producer, 0 = none
    uint16_t dep2 = 0;          ///< dyn distance to src2 producer, 0 = none
    uint16_t accessSize = 0;    ///< bytes per lane access (mem ops)
    uint8_t addrCount = 0;      ///< valid entries in lane/addr arrays

    /** Marks the lockstep engine switching serialized divergent paths. */
    bool pathSwitch = false;

    /** Lanes whose request completes with this op (latency bookkeeping). */
    Mask endMask = 0;

    /** First op of a new request/batch (starts the latency clock). */
    bool batchStart = false;

    // The address arrays come last, so an op without memory addresses
    // touches only the first cache line of the struct.
    uint8_t lane[kMaxBatch];    ///< lane of each memory address
    uint64_t addr[kMaxBatch];   ///< per-lane virtual address (mem ops)

    bool isMem() const { return si && isa::opInfo(si->op).isMem; }
    bool isBranch() const { return si && si->op == isa::Op::Branch; }
    bool isCtrl() const { return si && isa::opInfo(si->op).isCtrl; }
    int activeLanes() const { return popcount(mask); }

    /**
     * Copy another op's payload, touching only the addrCount-long prefix
     * of the lane/addr arrays. The full struct copy moves ~300 bytes per
     * dynamic instruction through the ROB even when the op has no memory
     * addresses; this is the hot-path alternative.
     */
    void
    copyFrom(const DynOp &o)
    {
        si = o.si;
        pc = o.pc;
        mask = o.mask;
        takenMask = o.takenMask;
        callDepth = o.callDepth;
        dep1 = o.dep1;
        dep2 = o.dep2;
        accessSize = o.accessSize;
        addrCount = o.addrCount;
        pathSwitch = o.pathSwitch;
        endMask = o.endMask;
        batchStart = o.batchStart;
        for (uint8_t i = 0; i < o.addrCount; ++i) {
            lane[i] = o.lane[i];
            addr[i] = o.addr[i];
        }
    }
};

/**
 * Pull interface for dynamic instruction streams: the scalar stream
 * (stream.h), the lockstep engine (simt/lockstep.h) and the analysis
 * cross-checker implement it; the timing cores consume it.
 */
class DynStream
{
  public:
    virtual ~DynStream() = default;

    /**
     * Produce the next dynamic op.
     * @return false when the stream is exhausted (op is untouched).
     */
    virtual bool next(DynOp &op) = 0;

    /** Requests fully retired by ops produced so far. */
    virtual uint64_t requestsCompleted() const = 0;
};

} // namespace simr::trace

#endif // SIMR_TRACE_DYNOP_H
