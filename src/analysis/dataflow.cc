#include "analysis/dataflow.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/builder.h"

namespace simr::analysis
{

using isa::AluKind;
using isa::Op;
using isa::StaticInst;

namespace
{

/**
 * Abstract value of one register: the value is modeled as
 * cs * stackTop + ch * heapBase + rest, with small exact integer base
 * coefficients, plus three may-bits on the rest:
 *
 *  - id / fr: may depend on the lane's identity (reqId / tid) or on
 *    frame placement (a base entering nonlinearly);
 *
 *  - csTop/chTop: a base coefficient joined from paths that disagree.
 *    Every consumer treats top as "may be nonzero" (which also forces
 *    the fr may-bit wherever some path could have clamped or
 *    poisoned a coefficient);
 *
 *  - ln: the rest varies across the lanes of a batch through a channel
 *    the id/fr bits don't track — request key always, api/argLen
 *    unless the batch is (api, argLen)-uniform. Effective lane variance
 *    at a use is ln || id || fr.
 */
struct RegAbs
{
    int8_t cs = 0;       ///< stack-base coefficient (when exact)
    int8_t ch = 0;       ///< heap-base coefficient (when exact)
    bool csTop = false;  ///< cs unknown (normalized: cs == 0 then)
    bool chTop = false;  ///< ch unknown (normalized: ch == 0 then)
    bool id = false;     ///< may depend on reqId / tid
    bool fr = false;     ///< may depend on frame placement
    bool ln = false;     ///< "rest" may vary across lanes of a batch

    bool exact() const { return !csTop && !chTop; }
    bool laneVarying() const { return id || fr || ln; }

    bool operator==(const RegAbs &o) const
    {
        return cs == o.cs && ch == o.ch && csTop == o.csTop &&
            chTop == o.chTop && id == o.id && fr == o.fr && ln == o.ln;
    }
};

/** Join into `x`; true iff `x` changed. All fields only ever grow. */
bool
joinReg(RegAbs &x, const RegAbs &y)
{
    RegAbs n;
    n.csTop = x.csTop || y.csTop || x.cs != y.cs;
    n.chTop = x.chTop || y.chTop || x.ch != y.ch;
    n.cs = n.csTop ? 0 : x.cs;
    n.ch = n.chTop ? 0 : x.ch;
    n.id = x.id || y.id;
    n.fr = x.fr || y.fr;
    n.ln = x.ln || y.ln;
    if (n == x)
        return false;
    x = n;
    return true;
}

/** Abstract register file at a program point. */
struct FlowState
{
    bool reachable = false;
    RegAbs regs[isa::kNumRegs];
};

/**
 * ALU transfer. Linear ops (add/sub/mov) combine exact coefficients,
 * clamping runaway ones (|c| > 3) to fr + zero; nonlinear ops drop the
 * coefficients and poison fr when a base may enter them; top inputs go
 * to whatever over-approximates every outcome the unknown
 * coefficients could produce.
 */
RegAbs
aluAbs(const FlowState &s, const StaticInst &si)
{
    const RegAbs &a = s.regs[si.src1];
    const RegAbs &b = s.regs[si.src2];
    // Always-nonlinear ops produce exactly zero coefficients at run
    // time no matter the inputs; a possibly-nonzero input coefficient
    // (nonzero or top) poisons the result's fr bit instead.
    auto nonlinear2 = [](const RegAbs &x, const RegAbs &y) {
        RegAbs n;
        n.id = x.id || y.id;
        n.fr = x.fr || y.fr || !x.exact() || !y.exact() || x.cs != 0 ||
            x.ch != 0 || y.cs != 0 || y.ch != 0;
        n.ln = x.ln || y.ln;
        return n;
    };
    auto nonlinear1 = [](const RegAbs &x) {
        RegAbs n;
        n.id = x.id;
        n.fr = x.fr || !x.exact() || x.cs != 0 || x.ch != 0;
        n.ln = x.ln;
        return n;
    };
    RegAbs o;
    switch (si.alu) {
      case AluKind::MovImm:
        return o;
      case AluKind::Mov:
      case AluKind::AddImm:
        return a;
      case AluKind::Add:
      case AluKind::Sub: {
        o.id = a.id || b.id;
        o.fr = a.fr || b.fr;
        o.ln = a.ln || b.ln;
        if (!a.exact() || !b.exact()) {
            // The run-time sum is either some exact pair (covered by
            // top) or the clamp result fr + (0, 0) (also covered, since
            // we force fr and 0 is below top).
            o.csTop = o.chTop = true;
            o.fr = true;
            return o;
        }
        int sign = si.alu == AluKind::Add ? 1 : -1;
        int cs = a.cs + sign * b.cs;
        int ch = a.ch + sign * b.ch;
        if (cs < -3 || cs > 3 || ch < -3 || ch > 3) {
            o.fr = true;
            cs = ch = 0;
        }
        o.cs = static_cast<int8_t>(cs);
        o.ch = static_cast<int8_t>(ch);
        return o;
      }
      case AluKind::Min:
      case AluKind::Max:
        if (a.exact() && b.exact()) {
            if (a.cs == b.cs && a.ch == b.ch) {
                o.cs = a.cs;
                o.ch = a.ch;
                o.id = a.id || b.id;
                o.fr = a.fr || b.fr;
                o.ln = a.ln || b.ln;
                return o;
            }
            return nonlinear2(a, b);
        }
        // Unknown coefficients: the run-time pair may be equal (result
        // keeps them) or unequal (result drops to zero) — only top
        // covers both, and fr must be assumed.
        o.csTop = o.chTop = true;
        o.id = a.id || b.id;
        o.fr = true;
        o.ln = a.ln || b.ln;
        return o;
      case AluKind::AndImm:
      case AluKind::Shl:
      case AluKind::Shr:
      case AluKind::ModImm:
        return nonlinear1(a);
      case AluKind::Mul:
      case AluKind::Div:
      case AluKind::And:
      case AluKind::Or:
      case AluKind::Xor:
      case AluKind::Mix:
        return nonlinear2(a, b);
    }
    return nonlinear2(a, b);
}

/** What one instruction contributed, for the extraction walk. */
struct InstVerdict
{
    bool evId = false;     ///< taint event: identity-dependent
    bool evFrame = false;  ///< taint event: frame-dependent
    bool branchUniform = false;
    MemClass cls = MemClass::Scattered;
};

/**
 * Per-instruction transfer plus the uniformity / coalescibility
 * verdicts. Mutates `s` in place; fills `v` when
 * non-null (the fixpoint iteration passes null, the extraction walk
 * passes a sink).
 */
void
stepInst(FlowState &s, const StaticInst &si, bool divCtl, InstVerdict *v)
{
    // Control dependence: a register written while only a lane-varying
    // subset of the batch executes holds a lane-varying value after the
    // paths reconverge, even when every arm writes something uniform
    // (which arm ran is what varies). divCtl is true for blocks between
    // a may-diverge branch and its reconvergence point; only the ln bit
    // is raised, so the id/fr taint facts are unaffected.
    auto write = [&s, divCtl](isa::RegId r, RegAbs val) {
        val.ln = val.ln || divCtl;
        if (r != isa::R_ZERO)
            s.regs[r] = val;
    };
    switch (si.op) {
      case Op::IAlu:
      case Op::IMul:
      case Op::IDiv:
      case Op::FAlu:
      case Op::Simd:
        write(si.dst, aluAbs(s, si));
        return;

      case Op::Load:
      case Op::Store:
      case Op::Atomic: {
        const RegAbs a = s.regs[si.src1];
        // An address relocates cleanly when it is exact and either
        // absolute or relative to exactly one base (stack or heap);
        // unknown, poisoned, mixed or scaled bases raise the frame
        // event. `based` marks the single-base (frame-relative) case.
        const bool clean = a.exact() && !a.fr;
        const bool based = clean &&
            ((a.cs == 1 && a.ch == 0) || (a.cs == 0 && a.ch == 1));
        if (v != nullptr) {
            v->evId = a.id;
            v->evFrame = !(based || (clean && a.cs == 0 && a.ch == 0));
            if (!a.exact() || a.laneVarying())
                v->cls = MemClass::Scattered;
            else if (a.cs == 0 && a.ch == 0)
                v->cls = MemClass::Uniform;
            else
                v->cls = MemClass::AffineStrided;
        }
        if (si.op == Op::Load) {
            RegAbs d;
            d.id = a.id;
            d.fr = !a.exact() || a.fr || based;
            // Load values are a pure function of the absolute address
            // (interp has no mutable memory: value = mix64(addr ^
            // dataSeed), dataSeed and the shared base uniform across a
            // batch, stack/heap bases per-lane). The value is therefore
            // lane-invariant iff the address is: exact absolute
            // coefficients with no varying rest. Frame loads (per-lane
            // bases) and any varying-address load differ per lane.
            d.ln = !(a.exact() && !a.fr && a.cs == 0 && a.ch == 0 &&
                     !a.id && !a.ln);
            write(si.dst, d);
        } else if (si.op == Op::Atomic) {
            RegAbs d;
            d.id = true;
            d.fr = !a.exact() || a.fr || based;
            d.ln = a.ln;
            write(si.dst, d);
        }
        return;
      }

      case Op::Branch: {
        const RegAbs &a = s.regs[si.src1];
        const RegAbs &b = s.regs[si.src2];
        if (v != nullptr) {
            v->evId = a.id || b.id;
            v->evFrame = a.fr || b.fr || !a.exact() || !b.exact() ||
                a.cs != b.cs || a.ch != b.ch;
            // Equal exact coefficients cancel in the comparison, so the
            // outcome is lane-invariant iff neither rest varies.
            v->branchUniform = a.exact() && b.exact() &&
                a.cs == b.cs && a.ch == b.ch &&
                !a.laneVarying() && !b.laneVarying();
        }
        return;
      }

      case Op::Syscall: {
        RegAbs d;
        d.id = true;  // salted with threadSalt
        write(si.dst, d);
        return;
      }

      case Op::Jump:
      case Op::Call:
      case Op::Ret:
      case Op::Fence:
      case Op::Nop:
      case Op::NumOps:
        return;
    }
}

/**
 * The product lattice over the interprocedural supergraph. Boundary
 * seeds: the stack pointer and heap base are the two frame bases,
 * tid / reqId carry the identity bit, and the lane-variance facts --
 * request key always differs per lane; api/argLen differ unless the
 * batch is (api, argLen)-uniform (the two solver runs).
 */
class TaintLattice
{
  public:
    using State = FlowState;

    TaintLattice(const isa::Program &prog, bool apiArgUniform,
                 const std::vector<char> &divCtl)
        : prog_(prog), apiArgUniform_(apiArgUniform), divCtl_(divCtl)
    {
    }

    State bottom() const { return State{}; }

    State boundary(int node) const
    {
        (void)node;
        State s;
        s.reachable = true;
        s.regs[isa::R_SP].cs = 1;
        s.regs[isa::R_HEAP].ch = 1;
        s.regs[isa::R_TID].id = true;
        s.regs[isa::R_REQID].id = true;
        s.regs[isa::R_KEY].ln = true;
        if (!apiArgUniform_) {
            s.regs[isa::R_API].ln = true;
            s.regs[isa::R_ARGLEN].ln = true;
        }
        return s;
    }

    bool join(State &into, const State &from)
    {
        if (!from.reachable)
            return false;
        if (!into.reachable) {
            into = from;
            return true;
        }
        bool changed = false;
        for (int r = 0; r < isa::kNumRegs; ++r)
            changed |= joinReg(into.regs[r], from.regs[r]);
        return changed;
    }

    State transfer(int block, const State &in)
    {
        if (!in.reachable)
            return in;
        State s = in;
        const bool dc = divCtl_[static_cast<size_t>(block)] != 0;
        for (const StaticInst &si : prog_.block(block).insts)
            stepInst(s, si, dc, nullptr);
        return s;
    }

  private:
    const isa::Program &prog_;
    bool apiArgUniform_;
    const std::vector<char> &divCtl_;
};

/**
 * Interprocedural supergraph: unlike the Cfg (whose Call edges are
 * intraprocedural summaries), a Call block flows into the callee's
 * entry and every Ret block of a function flows into every
 * continuation of that function's call sites. Registers are one global
 * file in this machine, so the flat register state is exact across
 * calls; joining over all call sites is the usual context-insensitive
 * over-approximation (and keeps recursion convergent).
 */
FlowGraph
buildSupergraph(const isa::Program &prog, const Cfg &cfg)
{
    FlowGraph g;
    g.numNodes = prog.numBlocks();
    g.succs.resize(static_cast<size_t>(g.numNodes));
    g.preds.resize(static_cast<size_t>(g.numNodes));

    std::vector<std::vector<int>> conts(
        static_cast<size_t>(prog.numFunctions()));
    for (int b = 0; b < prog.numBlocks(); ++b) {
        const isa::BasicBlock &bb = prog.block(b);
        auto &out = g.succs[static_cast<size_t>(b)];
        if (!bb.hasTerminator()) {
            out.push_back(bb.fallthrough);
            continue;
        }
        const StaticInst &t = bb.insts.back();
        switch (t.op) {
          case Op::Branch:
            out.push_back(t.targetBlock);
            if (bb.fallthrough != t.targetBlock)
                out.push_back(bb.fallthrough);
            break;
          case Op::Jump:
            out.push_back(t.targetBlock);
            break;
          case Op::Call:
            out.push_back(prog.func(t.funcId).entry);
            conts[static_cast<size_t>(t.funcId)].push_back(bb.fallthrough);
            break;
          case Op::Ret:
            break;  // resolved below, once all call sites are known
          default:
            simr_panic("dataflow: unhandled terminator '%s'",
                       isa::opName(t.op));
        }
    }
    for (int b = 0; b < prog.numBlocks(); ++b) {
        const isa::BasicBlock &bb = prog.block(b);
        if (!bb.hasTerminator() || bb.insts.back().op != Op::Ret)
            continue;
        int f = cfg.funcOf(b);
        if (f < 0)
            continue;  // unreachable function: no known call sites
        auto &out = g.succs[static_cast<size_t>(b)];
        for (int c : conts[static_cast<size_t>(f)])
            if (std::find(out.begin(), out.end(), c) == out.end())
                out.push_back(c);
    }
    for (int b = 0; b < g.numNodes; ++b)
        for (int s : g.succs[static_cast<size_t>(b)])
            g.preds[static_cast<size_t>(s)].push_back(b);

    int mainId = prog.findFunction("main");
    simr_assert(mainId >= 0, "dataflow requires a main function");
    g.entries.push_back(prog.func(mainId).entry);
    return g;
}

/**
 * Mark every block control-dependent on the branch terminating
 * `branchBlock`: reachable from its successors without passing the
 * reconvergence block (the builder's IPDOM annotation). Calls inside
 * the region spread into callees — lanes disagree about making the call
 * at all, so everything the callee writes is divergently controlled.
 * Returns true iff a new block was marked.
 */
bool
markDivergentRegion(const FlowGraph &g, int branchBlock, int reconv,
                    std::vector<char> *mark)
{
    bool changed = false;
    std::vector<int> work;
    std::vector<char> seen(static_cast<size_t>(g.numNodes), 0);
    for (int s : g.succs[static_cast<size_t>(branchBlock)])
        if (s != reconv && !seen[static_cast<size_t>(s)]) {
            seen[static_cast<size_t>(s)] = 1;
            work.push_back(s);
        }
    while (!work.empty()) {
        int b = work.back();
        work.pop_back();
        if (!(*mark)[static_cast<size_t>(b)]) {
            (*mark)[static_cast<size_t>(b)] = 1;
            changed = true;
        }
        for (int s : g.succs[static_cast<size_t>(b)])
            if (s != reconv && !seen[static_cast<size_t>(s)]) {
                seen[static_cast<size_t>(s)] = 1;
                work.push_back(s);
            }
    }
    return changed;
}

/**
 * One uniformity mode (strict or (api, argLen)-uniform batches) solved
 * to a joint fixpoint of the register lattice and the divergent-control
 * region set: branch verdicts decide which blocks run under divergent
 * control, which feeds the ln bit, which can demote further branches.
 * Monotone (regions only grow), so it converges in at most one rerun
 * per newly divergent branch.
 */
std::vector<FlowState>
solveUniformity(const isa::Program &prog, const FlowGraph &g,
                bool apiArgUniform, std::vector<char> *divCtlOut)
{
    std::vector<char> divCtl(static_cast<size_t>(g.numNodes), 0);
    for (;;) {
        TaintLattice lat(prog, apiArgUniform, divCtl);
        auto in = solveDataflow(g, lat, Direction::Forward);
        bool changed = false;
        for (int b = 0; b < prog.numBlocks(); ++b) {
            const isa::BasicBlock &bb = prog.block(b);
            if (!bb.hasTerminator() ||
                bb.insts.back().op != Op::Branch)
                continue;
            FlowState s = in[static_cast<size_t>(b)];
            if (!s.reachable)
                continue;
            const bool dc = divCtl[static_cast<size_t>(b)] != 0;
            InstVerdict v;
            for (const StaticInst &si : bb.insts)
                stepInst(s, si, dc, &v);
            if (!v.branchUniform)
                changed |= markDivergentRegion(
                    g, b, bb.insts.back().reconvBlock, &divCtl);
        }
        if (!changed) {
            *divCtlOut = std::move(divCtl);
            return in;
        }
    }
}

} // namespace

void
runDataflow(const isa::Program &prog, const Cfg &cfg, DataflowInfo *out)
{
    out->branches.clear();
    out->mems.clear();

    FlowGraph g = buildSupergraph(prog, cfg);
    // Run U ("strict"): api/argLen vary across lanes — uniformity here
    // holds under any batch mix. Run P: lanes share (api, argLen) — the
    // batches the per-api-arg batching policy forms. Taint facts are
    // identical in both (lane variance never feeds the taint bits).
    std::vector<char> dcStrict, dcBatch;
    auto inStrict = solveUniformity(prog, g, /*apiArgUniform=*/false,
                                    &dcStrict);
    auto inBatch = solveUniformity(prog, g, /*apiArgUniform=*/true,
                                   &dcBatch);

    bool allPerBatch = true;
    uint32_t flat = 0;
    for (int b = 0; b < prog.numBlocks(); ++b) {
        FlowState ss = inStrict[static_cast<size_t>(b)];
        FlowState sb = inBatch[static_cast<size_t>(b)];
        const bool reached = ss.reachable;
        const int func = cfg.funcOf(b);
        isa::Pc pc = prog.blockPc(b);
        for (const StaticInst &si : prog.block(b).insts) {
            InstVerdict vs, vb;
            if (reached) {
                stepInst(ss, si, dcStrict[static_cast<size_t>(b)] != 0,
                         &vs);
                stepInst(sb, si, dcBatch[static_cast<size_t>(b)] != 0,
                         &vb);
            }
            if (si.op == Op::Branch) {
                BranchFlow f;
                f.func = func;
                f.block = b;
                f.pc = pc;
                f.flat = flat;
                f.reached = reached;
                // Unreached branches never execute: vacuously uniform.
                f.uniformity = !reached ? Uniformity::UniformAlways
                    : vs.branchUniform ? Uniformity::UniformAlways
                    : vb.branchUniform ? Uniformity::UniformPerBatch
                    : Uniformity::MayDiverge;
                f.mayId = reached && vs.evId;
                f.mayFrame = reached && vs.evFrame;
                out->branches.push_back(f);
                if (reached && f.uniformity == Uniformity::MayDiverge)
                    allPerBatch = false;
            } else if (isa::opInfo(si.op).isMem) {
                MemFlow m;
                m.func = func;
                m.block = b;
                m.pc = pc;
                m.op = si.op;
                m.reached = reached;
                // Coalescibility is a within-batch property, so the
                // per-(api,argLen)-uniform run classifies it; the taint
                // events come from the (boundary-independent) facts.
                m.cls = reached ? vb.cls : MemClass::Uniform;
                m.mayId = reached && vs.evId;
                m.mayFrame = reached && vs.evFrame;
                out->mems.push_back(m);
            }
            pc += isa::kInstBytes;
            ++flat;
        }
    }

    out->allUniformPerBatch = allPerBatch;
    out->ran = true;

    auto byFuncPc = [](const auto &a, const auto &b) {
        return a.func != b.func ? a.func < b.func : a.pc < b.pc;
    };
    std::sort(out->branches.begin(), out->branches.end(), byFuncPc);
    std::sort(out->mems.begin(), out->mems.end(), byFuncPc);
}

std::shared_ptr<const StaticProof>
buildStaticProof(const isa::Program &prog, const DataflowInfo &df)
{
    auto proof = std::make_shared<StaticProof>();
    proof->fingerprint = programFingerprint(prog);
    proof->codeBase = prog.codeBase();
    proof->branchHint.assign(prog.staticInstCount(), 0);
    for (const BranchFlow &b : df.branches)
        proof->branchHint[b.flat] = static_cast<uint8_t>(b.uniformity);
    return proof;
}

} // namespace simr::analysis
