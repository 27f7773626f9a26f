/**
 * @file
 * Lattice-parameterized worklist dataflow engine plus the three client
 * analyses that make divergence and coalescing *structural* facts of a
 * µISA program instead of observations about one execution:
 *
 *  1. static taint: an abstract value per register -- linear
 *     stack/heap base coefficients plus identity (reqId / tid) and
 *     frame-placement may-bits -- joined over *all* paths. It is the
 *     substrate of the other two: a value that may depend on a lane's
 *     identity or frame differs across the lanes of a batch.
 *
 *  2. branch uniformity: classifies every conditional branch as
 *     provably uniform (always / per-(api,argLen)-batch) or
 *     may-diverge. Soundness invariant: every divergence event the
 *     lockstep engine observes lands on a may-diverge branch (or on a
 *     per-batch-uniform branch in a mixed batch).
 *
 *  3. memory coalescibility: classifies every memory op as uniform
 *     (one address per batch), affine-strided (per-lane segment base +
 *     uniform offset) or scattered — the input the banked-DRAM
 *     coalescing model needs.
 *
 * All three are one product lattice solved twice (strict and
 * per-(api,argLen) boundary conditions) over an interprocedural
 * supergraph: basic blocks plus call edges (call block -> callee entry)
 * and return edges (callee Ret block -> every continuation of that
 * callee). Registers are a single global file in this machine, so the
 * flat per-block register state is exact with respect to calling
 * conventions; joining over all call sites is the usual
 * context-insensitive over-approximation and keeps recursion sound
 * (the lattice has finite height, so the fixpoint exists).
 */

#ifndef SIMR_ANALYSIS_DATAFLOW_H
#define SIMR_ANALYSIS_DATAFLOW_H

#include <memory>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/diag.h"
#include "isa/program.h"
#include "analysis/proof.h"

namespace simr::analysis
{

/** Dataflow direction for the generic solver. */
enum class Direction : uint8_t {
    Forward,   ///< meet over predecessors, propagate to successors
    Backward,  ///< meet over successors, propagate to predecessors
};

/**
 * The graph the solver walks: node ids 0..numNodes-1 with explicit
 * successor/predecessor lists and the entry nodes that receive the
 * lattice's boundary state (exit nodes for a Backward problem).
 */
struct FlowGraph
{
    int numNodes = 0;
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;
    std::vector<int> entries;
};

/**
 * Generic worklist solver. The Lattice type supplies:
 *
 *   using State = ...;                            // copyable value
 *   State bottom() const;                         // unreachable state
 *   State boundary(int node) const;               // entry-node state
 *   bool  join(State &into, const State &from);   // true iff changed
 *   State transfer(int node, const State &in);    // node effect
 *
 * Returns the fixpoint *meet-in* state per node: for Forward problems
 * the state holding on entry to each node, for Backward the state
 * holding on exit. Visit order is deterministic (ascending node id
 * worklist), so iteration counts and results are reproducible.
 */
template <class Lattice>
std::vector<typename Lattice::State>
solveDataflow(const FlowGraph &g, Lattice &lat, Direction dir)
{
    const auto &out_edges = dir == Direction::Forward ? g.succs : g.preds;
    const size_t n = static_cast<size_t>(g.numNodes);

    std::vector<typename Lattice::State> in(n, lat.bottom());
    std::vector<char> queued(n, 0);
    // Ascending-id worklist: a simple binary-heap-free scheme that is
    // deterministic and close to reverse-postorder for builder-laid-out
    // programs (blocks are created roughly in control-flow order).
    std::vector<int> work;
    work.reserve(n);

    auto push = [&](int node) {
        if (!queued[static_cast<size_t>(node)]) {
            queued[static_cast<size_t>(node)] = 1;
            work.push_back(node);
        }
    };

    for (int e : g.entries) {
        lat.join(in[static_cast<size_t>(e)], lat.boundary(e));
        push(e);
    }

    while (!work.empty()) {
        // Pop the lowest-id queued node (deterministic order).
        size_t best = 0;
        for (size_t i = 1; i < work.size(); ++i)
            if (work[i] < work[best])
                best = i;
        int node = work[best];
        work[best] = work.back();
        work.pop_back();
        queued[static_cast<size_t>(node)] = 0;

        typename Lattice::State out =
            lat.transfer(node, in[static_cast<size_t>(node)]);
        for (int s : out_edges[static_cast<size_t>(node)]) {
            if (lat.join(in[static_cast<size_t>(s)], out))
                push(s);
        }
    }
    return in;
}

/**
 * Run the taint / uniformity / coalescibility clients over `prog` and
 * fill `out`. `cfg` must be built over `prog`; the program must be
 * structurally valid (the analyzer only calls this when no error
 * diagnostics were found). Results are sorted by (func, pc).
 */
void runDataflow(const isa::Program &prog, const Cfg &cfg,
                 DataflowInfo *out);

/**
 * Package a DataflowInfo into the lockstep engine's proof artifact
 * (the flat per-instruction branchHint table).
 */
std::shared_ptr<const StaticProof>
buildStaticProof(const isa::Program &prog, const DataflowInfo &df);

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_DATAFLOW_H
