#include "analysis/cache.h"

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/logging.h"
#include "analysis/proof.h"

namespace simr::analysis
{

ProgramAnalysis
analyzeAndProve(const isa::Program &prog)
{
    ProgramAnalysis a;
    a.report = analyze(prog);
    if (a.report.ok()) {
        // A laid-out, structurally valid program: the fingerprint and
        // the proof's flat table are both well defined.
        a.fingerprint = programFingerprint(prog);
        a.proof = buildStaticProof(prog, a.report.dataflow);
    }
    return a;
}

ProgramAnalysis
gateAndProve(const isa::Program &prog)
{
    ProgramAnalysis a = analyzeAndProve(prog);
    const Report &r = a.report;
    if (r.ok())
        return a;
    for (const auto &d : r.diags)
        if (d.sev == Severity::Error)
            simr_warn("analysis: %s: %s", prog.name().c_str(),
                      d.str().c_str());
    simr_fatal("analysis: program '%s' has %d error finding(s); refusing "
               "to simulate an ill-formed program", prog.name().c_str(),
               r.errors());
}

} // namespace simr::analysis
