/**
 * @file
 * Lockstep span recording: turns LockstepObserver callbacks into a
 * Chrome-trace timeline.
 *
 * Each engine gets one track (pid, tid). The virtual clock is the
 * engine's batch-op index (1 op = 1us), so span widths are directly
 * proportional to issue slots. Emitted shapes:
 *
 *   B/E "batch N"     one span per lockstep batch
 *   X  "window"       one span per issue window -- a maximal run of
 *                     consecutive ops sharing the same active mask --
 *                     with active-lane count and mask args
 *   i  "diverge"      branch split the active set (args: pc)
 *   i  "reconverge"   paths folded at a reconvergence point (args: pc)
 *   i  "spin-escape"  starving lane boosted (args: lane, pc)
 *
 * A MultiObserver tee lets a span recorder and a divergence profiler
 * watch the same engine.
 */

#ifndef SIMR_OBS_SPANS_H
#define SIMR_OBS_SPANS_H

#include <vector>

#include "obs/trace.h"
#include "simt/lockstep.h"

namespace simr::obs
{

/** Streams one engine's lockstep activity into a Tracer. */
class SpanRecorder : public simt::LockstepObserver
{
  public:
    /**
     * @param tracer   sink (must outlive the recorder); may be null,
     *                 making every callback a no-op
     * @param pid      trace process id (one per simulated chip)
     * @param tid      trace thread id (one per engine)
     * @param us_per_op virtual-time scale of the batch-op clock
     */
    SpanRecorder(Tracer *tracer, int pid, int tid,
                 double us_per_op = 1.0);

    void onBatchStart(uint64_t batch, int size, uint64_t opIdx) override;
    void onOp(const trace::DynOp &op, int width, uint64_t opIdx) override;
    void onDiverge(isa::Pc pc, uint64_t opIdx) override;
    void onMerge(isa::Pc pc, uint64_t opIdx) override;
    void onSpinEscape(int lane, isa::Pc pc, uint64_t opIdx) override;
    void onBatchEnd(uint64_t batch, uint64_t opIdx) override;

  private:
    double ts(uint64_t opIdx) const
    {
        return static_cast<double>(opIdx) * usPerOp_;
    }

    void closeWindow(uint64_t opIdx);

    Tracer *tracer_;
    int pid_;
    int tid_;
    double usPerOp_;

    bool windowOpen_ = false;
    trace::Mask windowMask_ = 0;
    int windowWidth_ = 0;
    uint64_t windowStartOp_ = 0;   ///< opIdx of the first op in window
    uint64_t lastOp_ = 0;
};

/** Fans LockstepObserver callbacks out to several sinks. */
class MultiObserver : public simt::LockstepObserver
{
  public:
    MultiObserver() = default;
    explicit MultiObserver(std::vector<simt::LockstepObserver *> sinks)
        : sinks_(std::move(sinks))
    {}

    void add(simt::LockstepObserver *o) { sinks_.push_back(o); }

    void
    onBatchStart(uint64_t batch, int size, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onBatchStart(batch, size, opIdx);
    }

    void
    onOp(const trace::DynOp &op, int width, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onOp(op, width, opIdx);
    }

    void
    onDiverge(isa::Pc pc, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onDiverge(pc, opIdx);
    }

    void
    onMerge(isa::Pc pc, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onMerge(pc, opIdx);
    }

    void
    onSpinEscape(int lane, isa::Pc pc, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onSpinEscape(lane, pc, opIdx);
    }

    void
    onBatchEnd(uint64_t batch, uint64_t opIdx) override
    {
        for (auto *o : sinks_)
            o->onBatchEnd(batch, opIdx);
    }

  private:
    std::vector<simt::LockstepObserver *> sinks_;
};

} // namespace simr::obs

#endif // SIMR_OBS_SPANS_H
