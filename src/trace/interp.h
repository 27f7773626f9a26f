/**
 * @file
 * Per-thread µISA interpreter.
 *
 * One ThreadState executes one request through a service Program, exposing
 * the dynamic stream a PIN tool would capture: static PC, opcode, memory
 * addresses, branch outcomes and call depth. Both the lockstep SIMT
 * engines and the scalar CPU stream are built on top of this class.
 *
 * Data values are synthetic but deterministic: loads return a hash of the
 * accessed address, so data-dependent control flow (e.g. a memcached
 * hit/miss test on a loaded value) is repeatable per key without having to
 * model memory contents.
 */

#ifndef SIMR_TRACE_INTERP_H
#define SIMR_TRACE_INTERP_H

#include <cstdint>
#include <vector>

#include "isa/program.h"

namespace simr::trace
{

/** Initial architectural context for one request thread. */
struct ThreadInit
{
    int64_t api = 0;         ///< request API id (register R_API)
    int64_t argLen = 1;      ///< argument length (R_ARGLEN)
    uint64_t key = 0;        ///< request key hash (R_KEY)
    int64_t reqId = 0;       ///< request sequence id (R_REQID)
    int64_t tid = 0;         ///< lane within the batch (R_TID)
    uint64_t sharedBase = 0; ///< shared data segment base (R_SHARED)
    uint64_t stackTop = 0;   ///< top of this thread's stack (R_SP)
    uint64_t heapBase = 0;   ///< private heap arena base (R_HEAP)
    uint64_t dataSeed = 0;   ///< service data seed for load values
};

/** Result of executing a single instruction. */
struct StepResult
{
    const isa::StaticInst *si = nullptr;
    isa::Pc pc = 0;
    bool taken = false;       ///< Branch outcome
    uint64_t addr = 0;        ///< effective address (mem ops)
    uint16_t accessSize = 0;  ///< bytes (mem ops)
    uint8_t callDepth = 0;    ///< depth *before* executing the op
    uint16_t dep1 = 0;        ///< distance to src1 producer, 0 = none
    uint16_t dep2 = 0;        ///< distance to src2 producer, 0 = none
};

/** Interpreter state for one request thread. */
class ThreadState
{
  public:
    /** Bind to a program; call reset() before stepping. */
    explicit ThreadState(const isa::Program &prog);

    /** (Re)start execution of the program's "main" for a new request. */
    void reset(const ThreadInit &init);

    /** True once main has returned. */
    bool done() const { return done_; }

    /** Current position (valid while !done()). Inline: the lockstep
     *  engine reads every lane's position on every step. */
    isa::Pc
    curPc() const
    {
        simr_assert(!done_, "curPc on a finished thread");
        return bbPc_ + static_cast<isa::Pc>(idx_) * isa::kInstBytes;
    }
    int curBlock() const { return block_; }
    size_t curIdx() const { return idx_; }
    int callDepth() const { return static_cast<int>(callStack_.size()); }

    /** The instruction about to execute (valid while !done()). */
    const isa::StaticInst &curInst() const;

    /** Execute exactly one instruction. */
    void step(StepResult &out);

    /** Dynamic instructions executed since reset. */
    uint64_t dynCount() const { return dynCount_; }

    /** Atomic ops executed since reset (spin-detection input). */
    uint64_t atomicCount() const { return atomicCount_; }

    const isa::Program &program() const { return prog_; }

    /** Register read (tests / debugging). */
    int64_t reg(isa::RegId r) const { return regs_[r]; }

  private:
    struct Frame
    {
        int block;
        size_t idx;
    };

    /** Skip through empty blocks / ends of blocks to a real position. */
    void normalize();

    void writeReg(isa::RegId r, int64_t v);
    int64_t aluValue(const isa::StaticInst &si) const;
    bool evalCmp(const isa::StaticInst &si) const;

    const isa::Program &prog_;
    int64_t regs_[isa::kNumRegs] = {};
    uint64_t lastWriter_[isa::kNumRegs] = {};
    std::vector<Frame> callStack_;
    int block_ = -1;
    size_t idx_ = 0;
    // Position cache, refreshed by normalize(): the current basic block
    // and its base PC, so the per-op inner loop avoids the
    // bounds-checked program lookups. Valid while !done_.
    const isa::BasicBlock *bb_ = nullptr;
    isa::Pc bbPc_ = 0;
    bool done_ = true;
    uint64_t dynCount_ = 0;
    uint64_t atomicCount_ = 0;
    uint64_t sysCount_ = 0;
    uint64_t dataSeed_ = 0;
    uint64_t threadSalt_ = 0;
};

} // namespace simr::trace

#endif // SIMR_TRACE_INTERP_H
