#include "trace/stream.h"

namespace simr::trace
{

ScalarStream::ScalarStream(const isa::Program &prog,
                           RequestProvider provider)
    : lane_(prog), provider_(std::move(provider))
{
}

bool
ScalarStream::next(DynOp &op)
{
    if (!haveRequest_ || lane_.done()) {
        if (!provider_ || !provider_(init_))
            return false;
        lane_.reset(init_);
        haveRequest_ = true;
        if (lane_.done())
            return false;
    }

    StepResult r;
    bool first = lane_.dynCount() == 0;
    lane_.step(r);

    op.batchStart = first;
    op.si = r.si;
    op.pc = r.pc;
    op.mask = 1;
    op.takenMask = r.taken ? 1 : 0;
    op.callDepth = r.callDepth;
    op.dep1 = r.dep1;
    op.dep2 = r.dep2;
    op.pathSwitch = false;
    op.endMask = 0;
    if (isa::opInfo(r.si->op).isMem) {
        op.accessSize = r.accessSize;
        op.addrCount = 1;
        op.lane[0] = 0;
        op.addr[0] = r.addr;
    } else {
        op.accessSize = 0;
        op.addrCount = 0;
    }
    if (lane_.done()) {
        op.endMask = 1;
        ++completed_;
    }
    return true;
}

} // namespace simr::trace
