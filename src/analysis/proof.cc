#include "analysis/proof.h"

#include <functional>
#include <string>

#include "common/logging.h"
#include "common/rng.h"

namespace simr::analysis
{

uint64_t
programFingerprint(const isa::Program &prog)
{
    simr_assert(prog.laidOut(), "fingerprinting a program before layout");
    const isa::Pc codeBase = prog.codeBase();
    size_t insts = 0;
    uint64_t h = mix64(0x7ace'cafe ^ prog.staticInstCount());
    for (int b = 0; b < prog.numBlocks(); ++b) {
        const isa::BasicBlock &bb = prog.block(b);
        simr_assert(prog.blockPc(b) == codeBase + insts * isa::kInstBytes,
                    "program PCs are not contiguous");
        h = mix64(h ^ static_cast<uint64_t>(bb.fallthrough) ^
                  (static_cast<uint64_t>(b) << 32));
        for (const isa::StaticInst &si : bb.insts) {
            ++insts;
            uint64_t w1 = static_cast<uint64_t>(si.op) |
                (static_cast<uint64_t>(si.alu) << 8) |
                (static_cast<uint64_t>(si.cmp) << 16) |
                (static_cast<uint64_t>(si.dst) << 24) |
                (static_cast<uint64_t>(si.src1) << 32) |
                (static_cast<uint64_t>(si.src2) << 40) |
                (static_cast<uint64_t>(si.accessSize) << 48);
            uint64_t w2 = static_cast<uint64_t>(si.imm);
            uint64_t w3 = (static_cast<uint64_t>(
                               static_cast<uint32_t>(si.targetBlock))) |
                (static_cast<uint64_t>(
                     static_cast<uint32_t>(si.funcId)) << 32);
            uint64_t w4 = static_cast<uint64_t>(
                              static_cast<uint32_t>(si.reconvBlock)) |
                (static_cast<uint64_t>(si.sys) << 32);
            h = mix64(h ^ w1);
            h = mix64(h ^ w2);
            h = mix64(h ^ w3);
            h = mix64(h ^ w4);
        }
    }
    for (int f = 0; f < prog.numFunctions(); ++f) {
        const isa::Function &fn = prog.func(f);
        h = mix64(h ^ std::hash<std::string>{}(fn.name));
        h = mix64(h ^ static_cast<uint64_t>(fn.entry));
    }
    h = mix64(h ^ codeBase);
    return h;
}

} // namespace simr::analysis
