/**
 * @file
 * The pre-simulation gate: analyze a program and, when it is well
 * formed, package its StaticProof. Every runner entry point
 * (measureEfficiency, runTiming, the cache studies) gates through it.
 * The analysis is cheap next to any run (tens of microseconds per
 * program), so nothing is kept between calls.
 */

#ifndef SIMR_ANALYSIS_CACHE_H
#define SIMR_ANALYSIS_CACHE_H

#include <memory>

#include "analysis/diag.h"
#include "isa/program.h"
#include "analysis/proof.h"

namespace simr::analysis
{

/** Everything the analyzer derives from one program. */
struct ProgramAnalysis
{
    uint64_t fingerprint = 0;  ///< programFingerprint() content hash
    Report report;
    std::shared_ptr<const StaticProof> proof;  ///< null unless ok
};

/** Analyze `prog`: Report plus proof when the report is ok. */
ProgramAnalysis analyzeAndProve(const isa::Program &prog);

/**
 * Pre-simulation gate: simr_fatal (exit 1) listing the findings when
 * `prog` carries error-severity diagnostics, otherwise its analysis
 * with the StaticProof.
 */
ProgramAnalysis gateAndProve(const isa::Program &prog);

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_CACHE_H
