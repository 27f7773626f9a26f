/**
 * @file
 * StaticProof: the per-instruction branch-uniformity table the static
 * dataflow analysis (analysis/dataflow) hands to the lockstep engine.
 * Plain data, produced once per program (cached with the analysis
 * report, keyed by the program fingerprint below) and consumed by
 * LockstepEngine: divergence observed at a branch the proof classified
 * uniform is counted as a hint violation, a live soundness tripwire
 * the dataflow soundness gate asserts to be zero.
 */

#ifndef SIMR_ANALYSIS_PROOF_H
#define SIMR_ANALYSIS_PROOF_H

#include <cstdint>
#include <vector>

#include "analysis/diag.h"
#include "isa/program.h"

namespace simr::analysis
{

/**
 * Content hash of a laid-out program: every instruction field, the
 * block layout, the function table and the code base. Program
 * instances are rebuilt per sweep cell, so pointers cannot key shared
 * analysis results; this hash does.
 */
uint64_t programFingerprint(const isa::Program &prog);

/**
 * Flat static-instruction index of `pc`. PCs are contiguous by
 * layout(), so instruction i of the program sits at codeBase + i *
 * kInstBytes.
 */
inline uint32_t
flatIndex(isa::Pc codeBase, isa::Pc pc)
{
    return static_cast<uint32_t>((pc - codeBase) / isa::kInstBytes);
}

/**
 * Per-program branch-uniformity proof, indexed by flat static
 * instruction index. Immutable once built; shared via the analysis
 * cache.
 */
struct StaticProof
{
    /** programFingerprint() of the program the proof was derived from. */
    uint64_t fingerprint = 0;

    /** That program's code base (the origin of the flat index). */
    isa::Pc codeBase = 0;

    /** Per flat index: Uniformity (as uint8_t) for Branch ops, 0 else. */
    std::vector<uint8_t> branchHint;

    /** Static verdict for the branch at `pc` (MayDiverge if unknown). */
    Uniformity
    hintAt(isa::Pc pc) const
    {
        const uint32_t flat = flatIndex(codeBase, pc);
        return flat < branchHint.size()
            ? static_cast<Uniformity>(branchHint[flat])
            : Uniformity::MayDiverge;
    }
};

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_PROOF_H
