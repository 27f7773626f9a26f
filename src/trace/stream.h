/**
 * @file
 * DynStream: pull-based dynamic instruction streams.
 *
 * Timing cores consume DynOps one at a time through this interface. The
 * scalar stream (one hardware thread running requests back-to-back) lives
 * here; the lockstep batch stream lives in src/simt (it needs the SIMT
 * reconvergence machinery).
 */

#ifndef SIMR_TRACE_STREAM_H
#define SIMR_TRACE_STREAM_H

#include <functional>

#include "trace/dynop.h"
#include "trace/interp.h"

namespace simr::trace
{

// DynStream, the pull interface ScalarStream implements, lives in
// dynop.h next to DynOp.

/**
 * Supplies the initial context of the next request a hardware thread
 * should run; returns false when no requests remain.
 */
using RequestProvider = std::function<bool(ThreadInit &)>;

/**
 * One hardware thread executing requests back-to-back (the CPU baseline
 * and one SMT context). Each DynOp has a single active lane.
 */
class ScalarStream : public DynStream
{
  public:
    ScalarStream(const isa::Program &prog, RequestProvider provider);

    bool next(DynOp &op) override;
    uint64_t requestsCompleted() const override { return completed_; }

  private:
    ThreadState lane_;
    RequestProvider provider_;
    ThreadInit init_;        ///< reused across requests (no realloc)
    bool haveRequest_ = false;
    uint64_t completed_ = 0;
};

} // namespace simr::trace

#endif // SIMR_TRACE_STREAM_H
