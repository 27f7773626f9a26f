#include "simt/lockstep.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/builder.h"

namespace simr::simt
{

using trace::DynOp;
using trace::Mask;

namespace
{

/** Pack (depth, block, idx) into an orderable position key. */
uint64_t
posKey(int depth, int block, size_t idx)
{
    return (static_cast<uint64_t>(depth) << 44) |
        (static_cast<uint64_t>(block) << 16) |
        static_cast<uint64_t>(idx & 0xffff);
}

} // namespace

LockstepObserver::~LockstepObserver() = default;

void
LockstepObserver::onBatchStart(uint64_t, int, uint64_t)
{}

void
LockstepObserver::onOp(const trace::DynOp &, int, uint64_t)
{}

void
LockstepObserver::onDiverge(isa::Pc, uint64_t)
{}

void
LockstepObserver::onMerge(isa::Pc, uint64_t)
{}

void
LockstepObserver::onSpinEscape(int, isa::Pc, uint64_t)
{}

void
LockstepObserver::onBatchEnd(uint64_t, uint64_t)
{}

LockstepEngine::LockstepEngine(const isa::Program &prog,
                               ReconvPolicy policy, int width,
                               BatchProvider provider,
                               SpinEscapeConfig spin)
    : prog_(prog), policy_(policy), width_(width),
      provider_(std::move(provider)), spin_(spin)
{
    simr_assert(width_ >= 1 && width_ <= trace::kMaxBatch,
                "batch width out of range");
    stats_.width = width_;
    lanes_.reserve(static_cast<size_t>(width_));
    for (int i = 0; i < width_; ++i)
        lanes_.emplace_back(prog_);
    inits_.reserve(static_cast<size_t>(width_));
    stagnation_.assign(static_cast<size_t>(width_), 0);
    lastPos_.assign(static_cast<size_t>(width_), 0);
}

LockstepEngine::~LockstepEngine() = default;

void
LockstepEngine::setStaticProof(
    std::shared_ptr<const analysis::StaticProof> proof)
{
    proof_ = std::move(proof);
    proofApplies_ = proof_ != nullptr &&
        proof_->fingerprint == analysis::programFingerprint(prog_);
}

void
LockstepEngine::noteDivergence(isa::Pc pc)
{
    if (!proofApplies_)
        return;
    const analysis::Uniformity h = proof_->hintAt(pc);
    if (h == analysis::Uniformity::UniformAlways ||
        (h == analysis::Uniformity::UniformPerBatch && batchApiArgUniform_))
        ++stats_.hintViolations;
}

bool
LockstepEngine::launchNext()
{
    int n = provider_ ? provider_(inits_) : 0;
    if (n <= 0)
        return false;
    simr_assert(n <= width_ &&
                inits_.size() == static_cast<size_t>(n),
                "batch provider size mismatch");

    batchApiArgUniform_ = true;
    for (int i = 1; i < n; ++i) {
        if (inits_[static_cast<size_t>(i)].api != inits_[0].api ||
            inits_[static_cast<size_t>(i)].argLen != inits_[0].argLen) {
            batchApiArgUniform_ = false;
            break;
        }
    }

    liveMask_ = 0;
    batchSize_ = n;
    for (int i = 0; i < n; ++i) {
        lanes_[static_cast<size_t>(i)].reset(inits_[static_cast<size_t>(i)]);
        if (!lanes_[static_cast<size_t>(i)].done())
            liveMask_ |= (1u << i);
    }
    if (liveMask_ == 0)
        return launchNext();

    ++stats_.batches;
    batchActive_ = true;
    if (obs_)
        obs_->onBatchStart(stats_.batches - 1, batchSize_,
                           stats_.batchOps);

    stack_.clear();
    // All live lanes start at main's entry.
    int first = __builtin_ctz(liveMask_);
    const auto &t0 = lanes_[static_cast<size_t>(first)];
    stack_.push_back({t0.curBlock(), t0.curIdx(), t0.callDepth(), -1,
                      liveMask_});

    std::fill(stagnation_.begin(), stagnation_.end(), 0);
    std::fill(lastPos_.begin(), lastPos_.end(), 0);
    batchOpIdx_ = 0;
    for (auto &w : lastWriterB_)
        w = 0;
    windowAtomics_ = 0;
    boostLane_ = -1;
    boostLeft_ = 0;
    prevActive_ = 0;
    return true;
}

void
LockstepEngine::execGroup(Mask mask, DynOp &op)
{
    simr_assert(mask != 0, "executing an empty group");
    op.si = nullptr;
    op.mask = mask;
    op.takenMask = 0;
    op.endMask = 0;
    op.addrCount = 0;
    op.dep1 = 0;
    op.dep2 = 0;
    op.pathSwitch = false;

    // Every active lane executes the same static instruction, so the
    // opInfo lookup is hoisted out of the lane loop: resolved once on
    // the first lane, reused (isMem here, writesReg below) for the rest.
    const isa::OpInfo *info = nullptr;
    for (int lane = 0; lane < batchSize_; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        trace::ThreadState &t = lanes_[static_cast<size_t>(lane)];
        trace::StepResult r;
        t.step(r);
        if (!op.si) {
            op.si = r.si;
            op.pc = r.pc;
            op.callDepth = r.callDepth;
            op.accessSize = r.accessSize;
            info = &isa::opInfo(r.si->op);
        } else {
            simr_assert(op.si == r.si,
                        "lockstep group executed different instructions");
        }
        if (r.taken)
            op.takenMask |= (1u << lane);
        if (info->isMem) {
            op.lane[op.addrCount] = static_cast<uint8_t>(lane);
            op.addr[op.addrCount] = r.addr;
            ++op.addrCount;
        }
        op.dep1 = std::max(op.dep1, r.dep1);
        op.dep2 = std::max(op.dep2, r.dep2);
        if (t.done()) {
            op.endMask |= (1u << lane);
            liveMask_ &= ~(1u << lane);
            ++completed_;
        }
    }

    // Rewrite dependence distances in batch-op space: the interpreter's
    // per-thread distances do not account for interleaved paths.
    ++batchOpIdx_;
    auto bdep = [this](isa::RegId r) -> uint16_t {
        if (r == isa::R_ZERO || lastWriterB_[r] == 0)
            return 0;
        uint64_t d = batchOpIdx_ - lastWriterB_[r];
        return static_cast<uint16_t>(std::min<uint64_t>(d, 0xffff));
    };
    op.dep1 = op.dep1 ? bdep(op.si->src1) : 0;
    op.dep2 = op.dep2 ? bdep(op.si->src2) : 0;
    if (info->writesReg)
        lastWriterB_[op.si->dst] = batchOpIdx_;

    ++stats_.batchOps;
    int active = trace::popcount(mask);
    stats_.scalarOps += static_cast<uint64_t>(active);
    stats_.maskedSlots += static_cast<uint64_t>(width_ - active);

    if (op.pathSwitch)
        ++stats_.pathSwitches;

    if (obs_)
        obs_->onOp(op, width_, stats_.batchOps);
}

bool
LockstepEngine::next(DynOp &op)
{
    bool fresh = false;
    if (!batchActive_) {
        if (!launchNext())
            return false;
        fresh = true;
    }
    bool produced = policy_ == ReconvPolicy::StackIpdom ?
        stepStack(op) : stepMinSp(op);
    op.batchStart = fresh;
    simr_assert(produced, "active batch produced no op");
    if (liveMask_ == 0) {
        batchActive_ = false;
        if (obs_)
            obs_->onBatchEnd(stats_.batches - 1, stats_.batchOps);
    }
    return true;
}

bool
LockstepEngine::stepStack(DynOp &op)
{
    // Find the runnable top entry, folding entries that already sit at
    // their own reconvergence point into their waiting ancestor.
    while (true) {
        simr_assert(!stack_.empty(), "SIMT stack underflow");
        StackEntry &e = stack_.back();
        e.mask &= liveMask_;
        if (e.mask == 0) {
            stack_.pop_back();
            if (stack_.empty()) {
                simr_assert(liveMask_ == 0,
                            "live lanes with an empty SIMT stack");
                // Batch drained without producing an op this call: the
                // caller only invokes us with live lanes, so this should
                // be unreachable.
                return false;
            }
            continue;
        }
        if (e.reconvBlock >= 0 &&
            posKey(e.depth, e.block, e.idx) ==
            posKey(e.depth, e.reconvBlock, 0)) {
            // Entry reached its merge point: fold into the ancestor
            // waiting there.
            Mask m = e.mask;
            int mblock = e.block;
            uint64_t key = posKey(e.depth, e.block, e.idx);
            stack_.pop_back();
            bool merged = false;
            for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
                if (posKey(it->depth, it->block, it->idx) == key) {
                    it->mask |= m;
                    merged = true;
                    break;
                }
            }
            simr_assert(merged, "no ancestor waiting at reconvergence");
            ++stats_.reconvMerges;
            if (obs_)
                obs_->onMerge(prog_.blockPc(mblock), stats_.batchOps);
            continue;
        }
        break;
    }

    StackEntry &e = stack_.back();
    Mask exec_mask = e.mask;
    execGroup(exec_mask, op);

    // Partition surviving lanes by their new position.
    struct Group
    {
        uint64_t key;
        int block;
        size_t idx;
        int depth;
        Mask mask;
    };
    Group groups[trace::kMaxBatch];
    int ngroups = 0;
    Mask survivors = exec_mask & liveMask_;
    for (int lane = 0; lane < batchSize_; ++lane) {
        if (!(survivors & (1u << lane)))
            continue;
        const trace::ThreadState &t = lanes_[static_cast<size_t>(lane)];
        uint64_t key = posKey(t.callDepth(), t.curBlock(), t.curIdx());
        bool found = false;
        for (int g = 0; g < ngroups; ++g) {
            if (groups[g].key == key) {
                groups[g].mask |= (1u << lane);
                found = true;
                break;
            }
        }
        if (!found) {
            groups[ngroups++] = {key, t.curBlock(), t.curIdx(),
                                 t.callDepth(), static_cast<Mask>(1u << lane)};
        }
    }

    e.mask = survivors;

    // Merge any group that landed on a waiting ancestor's position
    // (covers empty-arm joins that normalize() chains through).
    auto merge_down = [&](const Group &g) -> bool {
        if (stack_.size() < 2)
            return false;
        for (size_t i = stack_.size() - 1; i-- > 0;) {
            StackEntry &anc = stack_[i];
            if (posKey(anc.depth, anc.block, anc.idx) == g.key) {
                anc.mask |= g.mask;
                stack_.back().mask &= ~g.mask;
                ++stats_.reconvMerges;
                if (obs_)
                    obs_->onMerge(prog_.blockPc(anc.block),
                                  stats_.batchOps);
                return true;
            }
        }
        return false;
    };

    Group remaining[trace::kMaxBatch];
    int nrem = 0;
    for (int g = 0; g < ngroups; ++g) {
        if (!merge_down(groups[g]))
            remaining[nrem++] = groups[g];
    }

    StackEntry &top = stack_.back();
    if (nrem == 0) {
        if (top.mask == 0 && stack_.size() > 1)
            stack_.pop_back();
        else if (top.mask == 0 && liveMask_ == 0)
            stack_.pop_back();
        return true;
    }
    if (nrem == 1) {
        top.block = remaining[0].block;
        top.idx = remaining[0].idx;
        top.depth = remaining[0].depth;
        return true;
    }

    // Divergence: must be a conditional branch with an IPDOM annotation.
    simr_assert(op.si->op == isa::Op::Branch && op.si->reconvBlock >= 0,
                "multi-way split on a non-branch");
    ++stats_.divergeEvents;
    noteDivergence(op.pc);
    if (obs_)
        obs_->onDiverge(op.pc, stats_.batchOps);
    int rb = op.si->reconvBlock;
    uint64_t rkey = posKey(top.depth, rb, 0);

    // Lanes already at the reconvergence point wait in the current
    // entry; everyone else is pushed as a new path (lower PC last, so
    // it executes first, matching MinPC intuition inside the region).
    Mask wait_mask = 0;
    std::sort(remaining, remaining + nrem,
              [](const Group &a, const Group &b) { return a.key > b.key; });
    for (int g = 0; g < nrem; ++g)
        if (remaining[g].key == rkey)
            wait_mask |= remaining[g].mask;
    // Update the waiting parent before pushing (push_back invalidates
    // the `top` reference).
    top.block = rb;
    top.idx = 0;
    top.mask = wait_mask;
    for (int g = 0; g < nrem; ++g) {
        if (remaining[g].key == rkey)
            continue;
        stack_.push_back({remaining[g].block, remaining[g].idx,
                          remaining[g].depth, rb, remaining[g].mask});
    }
    return true;
}

bool
LockstepEngine::stepMinSp(DynOp &op)
{
    simr_assert(liveMask_ != 0, "stepMinSp with no live lanes");

    // Pick the executing position: spin-boosted lane, or deepest call
    // level first (MinSP) then minimum PC.
    int pick = -1;
    if (boostLeft_ > 0 && boostLane_ >= 0 &&
        (liveMask_ & (1u << boostLane_))) {
        pick = boostLane_;
        --boostLeft_;
    } else {
        boostLeft_ = 0;
        int best_depth = -1;
        isa::Pc best_pc = 0;
        for (int lane = 0; lane < batchSize_; ++lane) {
            if (!(liveMask_ & (1u << lane)))
                continue;
            const auto &t = lanes_[static_cast<size_t>(lane)];
            int d = t.callDepth();
            isa::Pc pc = t.curPc();
            if (pick < 0 || d > best_depth ||
                (d == best_depth && pc < best_pc)) {
                pick = lane;
                best_depth = d;
                best_pc = pc;
            }
        }
    }
    simr_assert(pick >= 0, "no lane selected");

    // Active set: lanes parked at exactly the picked position.
    const auto &tp = lanes_[static_cast<size_t>(pick)];
    uint64_t key = posKey(tp.callDepth(), tp.curBlock(), tp.curIdx());
    Mask active = 0;
    for (int lane = 0; lane < batchSize_; ++lane) {
        if (!(liveMask_ & (1u << lane)))
            continue;
        const auto &t = lanes_[static_cast<size_t>(lane)];
        if (posKey(t.callDepth(), t.curBlock(), t.curIdx()) == key)
            active |= (1u << lane);
    }

    execGroup(active, op);
    op.pathSwitch = prevActive_ != 0 && active != prevActive_;
    if (op.pathSwitch)
        ++stats_.pathSwitches;
    prevActive_ = active & liveMask_;

    if (op.isBranch()) {
        Mask t = op.takenMask;
        if (t != 0 && t != op.mask) {
            ++stats_.divergeEvents;
            noteDivergence(op.pc);
            if (obs_)
                obs_->onDiverge(op.pc, stats_.batchOps);
        }
    }

    // Spin-escape bookkeeping (Section III-A): a lane stuck at one PC
    // for k steps while atomics keep being decoded is likely waiting on
    // a lock held by a masked-off path; boost it for t steps.
    if (op.si->op == isa::Op::Atomic)
        windowAtomics_ += static_cast<uint64_t>(op.activeLanes());
    if ((stats_.batchOps & 63) == 0)
        windowAtomics_ /= 2;

    if (spin_.enabled) {
        for (int lane = 0; lane < batchSize_; ++lane) {
            if (!(liveMask_ & (1u << lane)))
                continue;
            if (active & (1u << lane)) {
                stagnation_[static_cast<size_t>(lane)] = 0;
                continue;
            }
            if (++stagnation_[static_cast<size_t>(lane)] >=
                    spin_.stagnationSteps &&
                windowAtomics_ >= spin_.atomicThreshold &&
                boostLeft_ == 0) {
                boostLane_ = lane;
                boostLeft_ = spin_.boostSteps;
                stagnation_[static_cast<size_t>(lane)] = 0;
                ++stats_.spinEscapes;
                if (obs_)
                    obs_->onSpinEscape(
                        lane,
                        lanes_[static_cast<size_t>(lane)].curPc(),
                        stats_.batchOps);
            }
        }
    }
    return true;
}

} // namespace simr::simt
