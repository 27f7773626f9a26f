#include "analysis/diag.h"

#include <cinttypes>
#include <cstdio>

namespace simr::analysis
{

const char *
codeName(Code c)
{
    switch (c) {
      case Code::Structural:       return "structural";
      case Code::MissingMain:      return "missing-main";
      case Code::UnreachableBlock: return "unreachable-block";
      case Code::SharedBlock:      return "shared-block";
      case Code::NoReturnPath:     return "no-return-path";
      case Code::Recursion:        return "recursion";
      case Code::ReconvMismatch:   return "reconv-mismatch";
      case Code::MinPcViolation:   return "minpc-violation";
      case Code::Irreducible:      return "irreducible";
      case Code::LockPairing:      return "lock-pairing";
      case Code::AccessSize:       return "access-size";
      case Code::SegmentViolation: return "segment-violation";
      case Code::NumCodes:         break;
    }
    return "unknown";
}

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "unknown";
}

const char *
uniformityName(Uniformity u)
{
    switch (u) {
      case Uniformity::MayDiverge:      return "may-diverge";
      case Uniformity::UniformPerBatch: return "uniform-per-batch";
      case Uniformity::UniformAlways:   return "uniform";
    }
    return "unknown";
}

const char *
memClassName(MemClass c)
{
    switch (c) {
      case MemClass::Uniform:       return "uniform";
      case MemClass::AffineStrided: return "affine";
      case MemClass::Scattered:     return "scattered";
    }
    return "unknown";
}

int
DataflowInfo::countUniformity(Uniformity u) const
{
    int n = 0;
    for (const auto &b : branches)
        n += b.uniformity == u ? 1 : 0;
    return n;
}

int
DataflowInfo::countMemClass(MemClass c) const
{
    int n = 0;
    for (const auto &m : mems)
        n += m.cls == c ? 1 : 0;
    return n;
}

const BranchFlow *
DataflowInfo::branchAt(isa::Pc pc) const
{
    for (const auto &b : branches)
        if (b.pc == pc)
            return &b;
    return nullptr;
}

std::string
Diag::str() const
{
    char loc[96];
    if (block >= 0 && pc > 0) {
        std::snprintf(loc, sizeof(loc), " fn %d blk %d @0x%" PRIx64,
                      func, block, pc);
    } else if (block >= 0) {
        std::snprintf(loc, sizeof(loc), " fn %d blk %d", func, block);
    } else {
        loc[0] = '\0';
    }
    return std::string(severityName(sev)) + "[" + codeName(code) + "]" +
        loc + ": " + text;
}

int
Report::count(Severity s) const
{
    int n = 0;
    for (const auto &d : diags)
        n += d.sev == s ? 1 : 0;
    return n;
}

const BranchInfo *
Report::branchAt(isa::Pc pc) const
{
    for (const auto &b : branches)
        if (b.pc == pc)
            return &b;
    return nullptr;
}

namespace
{

/** Escape a string for inclusion in a JSON literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
Report::json() const
{
    std::string out = "{\n";
    char buf[192];
    out += "  \"program\": \"" + jsonEscape(program) + "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"functions\": %d,\n  \"blocks\": %d,\n"
                  "  \"instructions\": %zu,\n"
                  "  \"errors\": %d,\n  \"warnings\": %d,\n",
                  numFunctions, numBlocks, numInsts, errors(), warnings());
    out += buf;
    out += "  \"diagnostics\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diag &d = diags[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"code\": \"%s\", \"severity\": \"%s\", "
                      "\"func\": %d, \"block\": %d, \"pc\": %" PRIu64
                      ", \"text\": \"",
                      i ? "," : "", codeName(d.code), severityName(d.sev),
                      d.func, d.block, d.pc);
        out += buf;
        out += jsonEscape(d.text) + "\"}";
    }
    out += diags.empty() ? "],\n" : "\n  ],\n";
    out += "  \"branches\": [";
    for (size_t i = 0; i < branches.size(); ++i) {
        const BranchInfo &b = branches[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"func\": %d, \"block\": %d, "
                      "\"pc\": %" PRIu64 ", \"annot\": %d, "
                      "\"ipdom\": %d, \"mergePc\": %" PRIu64 "}",
                      i ? "," : "", b.func, b.block, b.pc, b.annotReconv,
                      b.computedIpdom, b.expectedMergePc);
        out += buf;
    }
    out += branches.empty() ? "]," : "\n  ],";
    out += "\n  \"dataflow\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"ran\": %s,\n"
                  "    \"all_uniform_per_batch\": %s,\n",
                  dataflow.ran ? "true" : "false",
                  dataflow.allUniformPerBatch ? "true" : "false");
    out += buf;
    out += "    \"branches\": [";
    for (size_t i = 0; i < dataflow.branches.size(); ++i) {
        const BranchFlow &b = dataflow.branches[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n      {\"func\": %d, \"block\": %d, "
                      "\"pc\": %" PRIu64 ", \"uniformity\": \"%s\", "
                      "\"may_id\": %s, \"may_frame\": %s}",
                      i ? "," : "", b.func, b.block, b.pc,
                      uniformityName(b.uniformity),
                      b.mayId ? "true" : "false",
                      b.mayFrame ? "true" : "false");
        out += buf;
    }
    out += dataflow.branches.empty() ? "],\n" : "\n    ],\n";
    out += "    \"mems\": [";
    for (size_t i = 0; i < dataflow.mems.size(); ++i) {
        const MemFlow &m = dataflow.mems[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n      {\"func\": %d, \"block\": %d, "
                      "\"pc\": %" PRIu64 ", \"op\": \"%s\", "
                      "\"class\": \"%s\", "
                      "\"may_id\": %s, \"may_frame\": %s}",
                      i ? "," : "", m.func, m.block, m.pc,
                      isa::opName(m.op), memClassName(m.cls),
                      m.mayId ? "true" : "false",
                      m.mayFrame ? "true" : "false");
        out += buf;
    }
    out += dataflow.mems.empty() ? "]\n" : "\n    ]\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

} // namespace simr::analysis
