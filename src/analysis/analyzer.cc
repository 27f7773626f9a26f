#include "analysis/analyzer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/dom.h"
#include "common/logging.h"
#include "isa/builder.h"
#include "isa/check.h"
#include "mem/address_space.h"

namespace simr::analysis
{

using isa::Op;
using isa::Pc;
using isa::Program;
using isa::StaticInst;
using mem::AddressSpace;
using mem::Segment;

namespace
{

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** Emit a diag located at instruction `idx` of `block`. */
void
addDiag(Report &r, const Program &p, Code code, Severity sev, int func,
        int block, int idx, std::string text)
{
    Diag d;
    d.code = code;
    d.sev = sev;
    d.func = func;
    d.block = block;
    d.pc = (block >= 0 && idx >= 0 && p.laidOut())
        ? p.pcOf(block, static_cast<size_t>(idx)) : 0;
    d.text = std::move(text);
    r.diags.push_back(std::move(d));
}

/**
 * Blocks reachable from the branch's successors without passing through
 * the reconvergence block: the region the reconvergence point merges.
 */
std::vector<int>
mergeRegion(const Cfg &cfg, int branch_block, int reconv)
{
    std::vector<int> region;
    std::vector<char> seen(
        static_cast<size_t>(cfg.program().numBlocks()), 0);
    seen[static_cast<size_t>(reconv)] = 1;
    std::vector<int> work;
    for (int s : cfg.succs(branch_block)) {
        if (!seen[static_cast<size_t>(s)]) {
            seen[static_cast<size_t>(s)] = 1;
            work.push_back(s);
        }
    }
    while (!work.empty()) {
        int b = work.back();
        work.pop_back();
        region.push_back(b);
        for (int s : cfg.succs(b)) {
            if (!seen[static_cast<size_t>(s)]) {
                seen[static_cast<size_t>(s)] = 1;
                work.push_back(s);
            }
        }
    }
    return region;
}

/** Fence directly followed (same block) by a zero-store: lock release. */
bool
isReleaseFence(const isa::BasicBlock &bb, size_t idx)
{
    if (idx + 1 >= bb.insts.size())
        return false;
    const StaticInst &next = bb.insts[idx + 1];
    return next.op == Op::Store && next.src2 == isa::R_ZERO;
}

/** Memory-discipline lints for one instruction. */
void
lintMemAccess(Report &r, const Program &p, int func, int block, int idx,
              const StaticInst &si)
{
    bool is_store = si.op == Op::Store || si.op == Op::Atomic;
    const char *what = isa::opName(si.op);

    switch (si.src1) {
      case isa::R_ZERO: {
        // Absolute address: fully resolvable against the layout.
        auto addr = static_cast<mem::Addr>(si.imm);
        Segment seg = AddressSpace::classify(addr);
        if (seg == Segment::Other) {
            addDiag(r, p, Code::SegmentViolation, Severity::Error, func,
                    block, idx,
                    format("%s targets unmapped address 0x%" PRIx64,
                           what, addr));
        } else if (seg == Segment::Code) {
            addDiag(r, p, Code::SegmentViolation,
                    is_store ? Severity::Error : Severity::Warning, func,
                    block, idx,
                    format("%s targets the code segment (0x%" PRIx64 ")",
                           what, addr));
        }
        break;
      }
      case isa::R_SP: {
        // R_SP starts 256 bytes below the segment top; the access must
        // stay inside this thread's 64KB stack segment.
        int64_t lo = -static_cast<int64_t>(AddressSpace::kStackSize - 256);
        if (si.imm < lo || si.imm + si.accessSize > 256) {
            addDiag(r, p, Code::SegmentViolation, Severity::Error, func,
                    block, idx,
                    format("%s at R_SP%+" PRId64 " escapes the %" PRIu64
                           "-byte stack segment", what, si.imm,
                           AddressSpace::kStackSize));
        }
        break;
      }
      case isa::R_SHARED: {
        mem::Addr addr = AddressSpace::kSharedHeapBase +
            static_cast<mem::Addr>(si.imm);
        if (si.imm < 0 || AddressSpace::classify(addr) != Segment::SharedHeap) {
            addDiag(r, p, Code::SegmentViolation, Severity::Error, func,
                    block, idx,
                    format("%s at R_SHARED%+" PRId64 " leaves the shared "
                           "heap segment", what, si.imm));
        }
        break;
      }
      case isa::R_HEAP: {
        if (si.imm < 0) {
            addDiag(r, p, Code::SegmentViolation, Severity::Error, func,
                    block, idx,
                    format("%s at R_HEAP%+" PRId64 " precedes the arena "
                           "base", what, si.imm));
        } else if (static_cast<mem::Addr>(si.imm) >=
                   AddressSpace::kArenaStride) {
            addDiag(r, p, Code::SegmentViolation, Severity::Warning, func,
                    block, idx,
                    format("%s at R_HEAP%+" PRId64 " crosses the %" PRIu64
                           "-byte arena stride into a neighbour thread's "
                           "arena", what, si.imm,
                           AddressSpace::kArenaStride));
        }
        break;
      }
      default:
        break;  // derived base register: not resolvable statically
    }
}

} // namespace

Pc
normalizedBlockPc(const Program &prog, int block)
{
    int b = block;
    // The guard bounds pathological all-empty cycles.
    for (int guard = prog.numBlocks(); guard-- > 0;) {
        const isa::BasicBlock &bb = prog.block(b);
        if (!bb.insts.empty() || bb.fallthrough < 0)
            break;
        b = bb.fallthrough;
    }
    return prog.blockPc(b);
}

Report
analyze(const Program &prog)
{
    Report r;
    r.program = prog.name();
    r.numFunctions = prog.numFunctions();
    r.numBlocks = prog.numBlocks();
    r.numInsts = prog.laidOut() ? prog.staticInstCount() : 0;

    // Pass 1: structural invariants (shared with Program::validate()).
    for (const auto &issue : isa::checkStructure(prog)) {
        addDiag(r, prog, Code::Structural, Severity::Error, -1,
                issue.block, issue.inst, issue.text);
    }
    if (!prog.laidOut()) {
        addDiag(r, prog, Code::Structural, Severity::Error, -1, -1, -1,
                "program has not been laid out");
    }
    if (!r.ok())
        return r;  // deeper passes assume valid ids and PCs

    Cfg cfg(prog);

    // Pass 2: program-shape lints.
    if (prog.findFunction("main") < 0) {
        addDiag(r, prog, Code::MissingMain, Severity::Error, -1, -1, -1,
                "no 'main' function: the executors cannot start requests");
    }
    for (int b = 0; b < prog.numBlocks(); ++b) {
        if (cfg.funcOf(b) < 0) {
            addDiag(r, prog, Code::UnreachableBlock, Severity::Error, -1,
                    b, 0,
                    format("block %d unreachable from every function "
                           "entry", b));
        } else if (cfg.isShared(b)) {
            addDiag(r, prog, Code::SharedBlock, Severity::Error,
                    cfg.funcOf(b), b, 0,
                    format("block %d reachable from multiple function "
                           "entries: control flow crosses a function "
                           "boundary without a Call (call-depth "
                           "imbalance)", b));
        }
    }

    // Pass 3: call-graph recursion (unbounded call depth at run time).
    {
        std::vector<int> color(static_cast<size_t>(cfg.numFuncs()), 0);
        std::function<bool(int)> visit = [&](int f) -> bool {
            color[static_cast<size_t>(f)] = 1;
            for (int c : cfg.callees(f)) {
                if (color[static_cast<size_t>(c)] == 1)
                    return true;
                if (color[static_cast<size_t>(c)] == 0 && visit(c))
                    return true;
            }
            color[static_cast<size_t>(f)] = 2;
            return false;
        };
        for (int f = 0; f < cfg.numFuncs(); ++f) {
            if (color[static_cast<size_t>(f)] == 0 && visit(f)) {
                addDiag(r, prog, Code::Recursion, Severity::Warning, f,
                        -1, -1,
                        format("call graph cycle through function '%s': "
                               "call depth is unbounded",
                               prog.func(f).name.c_str()));
                break;
            }
        }
    }

    // Pass 4: per-function dominance analyses and lints.
    for (int f = 0; f < cfg.numFuncs(); ++f) {
        const FuncCfg &fc = cfg.func(f);
        DomTree dom = DomTree::dominators(cfg, fc);
        DomTree pdom = DomTree::postDominators(cfg, fc);

        if (fc.exits.empty() || !pdom.computed(fc.entry)) {
            addDiag(r, prog, Code::NoReturnPath, Severity::Error, f,
                    fc.entry, -1,
                    format("function '%s' has no path from its entry to "
                           "a Ret", prog.func(f).name.c_str()));
        }

        int acquire_fences = 0;
        int release_fences = 0;

        for (int b : fc.blocks) {
            if (cfg.funcOf(b) != f)
                continue;  // shared block: reported once, owner's pass
            const isa::BasicBlock &bb = prog.block(b);

            // Irreducibility: a back edge must target a dominator.
            // Backwardness is judged in block-id order (the layout
            // order); PCs tie for empty blocks.
            for (int s : cfg.succs(b)) {
                if (s <= b && cfg.funcOf(s) == f &&
                    !dom.dominates(s, b)) {
                    addDiag(r, prog, Code::Irreducible, Severity::Warning,
                            f, b, static_cast<int>(bb.insts.size()) - 1,
                            format("backward edge %d -> %d does not close "
                                   "a natural loop (irreducible control "
                                   "flow)", b, s));
                }
            }

            for (size_t i = 0; i < bb.insts.size(); ++i) {
                const StaticInst &si = bb.insts[i];
                if (si.op == Op::Fence) {
                    if (isReleaseFence(bb, i))
                        ++release_fences;
                    else
                        ++acquire_fences;
                }
                if (isa::opInfo(si.op).isMem)
                    lintMemAccess(r, prog, f, b, static_cast<int>(i), si);
            }

            // Conditional branches: derive the IPDOM independently and
            // verify the builder's annotation plus the MinPC layout.
            if (!bb.hasTerminator() || bb.insts.back().op != Op::Branch)
                continue;
            const StaticInst &br = bb.insts.back();
            int idx = static_cast<int>(bb.insts.size()) - 1;

            BranchInfo bi;
            bi.func = f;
            bi.block = b;
            bi.pc = prog.pcOf(b, static_cast<size_t>(idx));
            bi.annotReconv = br.reconvBlock;
            bi.computedIpdom = pdom.computed(b) ? pdom.idom(b) : -1;
            bi.expectedMergePc = bi.computedIpdom >= 0
                ? normalizedBlockPc(prog, bi.computedIpdom) : 0;
            r.branches.push_back(bi);

            if (bi.computedIpdom != bi.annotReconv) {
                addDiag(r, prog, Code::ReconvMismatch, Severity::Error, f,
                        b, idx,
                        bi.computedIpdom >= 0
                        ? format("annotated reconvergence block %d, but "
                                 "the immediate post-dominator is block "
                                 "%d", bi.annotReconv, bi.computedIpdom)
                        : format("annotated reconvergence block %d, but "
                                 "the divergent paths only rejoin at "
                                 "the function exit", bi.annotReconv));
                continue;
            }

            // MinPC: the reconvergence point must be laid out at the
            // lowest point (highest PC) of the region it merges, the
            // layout property the paper's x86 analysis assumes and the
            // MinSP-PC scheduler exploits.
            Pc reconv_pc = prog.blockPc(bi.annotReconv);
            for (int x : mergeRegion(cfg, b, bi.annotReconv)) {
                if (prog.blockPc(x) > reconv_pc) {
                    addDiag(r, prog, Code::MinPcViolation, Severity::Error,
                            f, b, idx,
                            format("reconvergence block %d (pc 0x%" PRIx64
                                   ") laid out before region block %d "
                                   "(pc 0x%" PRIx64 "): MinPC assumption "
                                   "violated", bi.annotReconv, reconv_pc,
                                   x, prog.blockPc(x)));
                    break;
                }
            }
        }

        if (acquire_fences != release_fences) {
            addDiag(r, prog, Code::LockPairing, Severity::Error, f, -1, -1,
                    format("function '%s': %d lock-acquire fence(s) vs %d "
                           "release fence(s) (fence + zero-store)",
                           prog.func(f).name.c_str(), acquire_fences,
                           release_fences));
        }
    }

    // Pass 5: whole-program dataflow (taint tiers, branch uniformity,
    // memory coalescibility). Only meaningful on a program every other
    // pass accepted: the supergraph assumes valid targets and a main.
    if (r.ok())
        runDataflow(prog, cfg, &r.dataflow);

    // Stable output order: function, then PC, then diagnostic code —
    // deterministic, so golden files and cross-run diffs stay clean.
    std::stable_sort(r.diags.begin(), r.diags.end(),
                     [](const Diag &a, const Diag &b) {
                         if (a.func != b.func)
                             return a.func < b.func;
                         if (a.pc != b.pc)
                             return a.pc < b.pc;
                         return static_cast<int>(a.code) <
                             static_cast<int>(b.code);
                     });
    return r;
}

} // namespace simr::analysis
