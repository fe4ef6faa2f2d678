#include "isa/decode.hh"

#include "asm/assembler.hh"
#include "common/logging.hh"

namespace vpir
{

unsigned
fuPoolSize(FuType t)
{
    switch (t) {
      case FuType::None:      return 0;
      case FuType::IntAlu:    return 8;
      case FuType::LoadStore: return 2;
      case FuType::FpAdder:   return 4;
      case FuType::IntMulDiv: return 1;
      case FuType::FpMulDiv:  return 1;
      default: panic("bad FU type");
    }
}

DecodedProgram
predecode(const Program &program)
{
    // srcRegs()/dstRegs() say "absent" with REG_INVALID; the record
    // says it with r0.
    auto orZero = [](RegId r) { return r == REG_INVALID ? REG_ZERO : r; };

    DecodedProgram out;
    out.textBase = program.textBase;
    out.entry = program.entry;
    out.words.reserve(program.text.size());
    for (const Instr &i : program.text) {
        DecodedInst d{i, &decodeInfo(Op::NOP), {REG_ZERO, REG_ZERO},
                      {REG_ZERO, REG_ZERO}, 0, WordKind::Invalid,
                      nullptr};
        if (i.op >= Op::NUM_OPS) {
            d.invalid = "evalInstr: unhandled opcode";
            out.words.push_back(d);
            continue;
        }
        const SrcRegs s = srcRegs(i);
        const DstRegs t = dstRegs(i);
        d.info = &decodeInfo(i.op);
        for (RegId r : {s.src[0], s.src[1], t.dst[0], t.dst[1]}) {
            if (r != REG_INVALID && r >= NUM_ARCH_REGS)
                d.invalid = "register id out of range";
        }
        if (!d.invalid) {
            d.src[0] = orZero(s.src[0]);
            d.src[1] = orZero(s.src[1]);
            d.dst[0] = orZero(t.dst[0]);
            d.dst[1] = orZero(t.dst[1]);
            d.memSz = d.info->memSz;
            d.kind = i.op == Op::HALT ? WordKind::Halt
                     : isStore(i.op)  ? WordKind::Store
                                      : WordKind::Exec;
        }
        out.words.push_back(d);
    }
    return out;
}

} // namespace vpir
