/**
 * @file
 * The ISA's semantics: one pure evaluator from operand values to
 * results.
 *
 * evalInstrWith() is the only definition of what an instruction does.
 * It is a template over the memory reader loads use, so each executor
 * can hand it the reader that suits it: evalInstr() (emu/executor.hh)
 * is its instantiation over a type-erased MemReadFn, called by the
 * timing core's dispatch and execute stages; FuncEngine (emu/engine.hh)
 * instantiates it over its page-cached reader so a functional step
 * compiles to one inlined body.
 */

#ifndef VPIR_EMU_SEMANTICS_HH
#define VPIR_EMU_SEMANTICS_HH

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Outcome of evaluating one instruction's semantics. */
struct SemOut
{
    uint64_t result = 0;      //!< value for rd
    uint64_t result2 = 0;     //!< value for rd2 (HI)
    bool taken = false;       //!< control: branch/jump taken
    Addr nextPC = 0;          //!< control: next PC
    Addr memAddr = 0;         //!< memory: effective address
    uint64_t storeValue = 0;  //!< memory: value stored
};

namespace sem_detail
{

inline double
asDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

inline uint64_t
asBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

inline uint32_t
lo32(uint64_t v)
{
    return static_cast<uint32_t>(v);
}

inline int32_t
slo32(uint64_t v)
{
    return static_cast<int32_t>(lo32(v));
}

/**
 * The bits of a binary FP result @p r computed from operands @p a and
 * @p b, with NaN propagation fixed: when an operand is a NaN, the
 * result is the first NaN operand, quieted (x86 SSE's rule). IEEE 754
 * leaves that choice open and a compiler may commute a + b, so without
 * this two compilations of these semantics (the core's and the
 * functional engine's) could return different NaNs.
 */
inline uint64_t
fpResult(uint64_t a, uint64_t b, double r)
{
    constexpr uint64_t QUIET = 1ull << 51;
    if (std::isnan(asDouble(a)))
        return a | QUIET;
    if (std::isnan(asDouble(b)))
        return b | QUIET;
    return asBits(r);
}

/** Truncate to int32, with x86's result for NaN and out-of-range
 *  values (INT32_MIN) spelled out: the C++ conversion is undefined
 *  there. */
inline int32_t
truncToInt32(double d)
{
    return d > -2147483649.0 && d < 2147483648.0 ? static_cast<int32_t>(d)
                                                  : INT32_MIN;
}

} // namespace sem_detail

/**
 * Evaluate an instruction given its operand values.
 *
 * @param inst  The instruction.
 * @param pc    Its PC (for fall-through / link values).
 * @param src0  Value of srcRegs(inst).src[0] (0 if absent).
 * @param src1  Value of srcRegs(inst).src[1] (0 if absent).
 * @param mem   Memory reader for loads: `uint64_t(Addr, unsigned)`.
 */
template <typename MemRead>
[[gnu::always_inline]] inline SemOut
evalInstrWith(const Instr &inst, Addr pc, uint64_t src0, uint64_t src1,
              const MemRead &mem)
{
    using namespace sem_detail;
    SemOut o;
    o.nextPC = pc + 4;

    const uint32_t a = lo32(src0);
    const uint32_t b = lo32(src1);
    const int32_t sa = slo32(src0);
    const int32_t sb = slo32(src1);
    const double fa = asDouble(src0);
    const double fb = asDouble(src1);

    switch (inst.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        break;

      case Op::ADD: o.result = lo32(a + b); break;
      case Op::SUB: o.result = lo32(a - b); break;
      case Op::AND: o.result = a & b; break;
      case Op::OR: o.result = a | b; break;
      case Op::XOR: o.result = a ^ b; break;
      case Op::NOR: o.result = lo32(~(a | b)); break;
      case Op::SLT: o.result = sa < sb ? 1 : 0; break;
      case Op::SLTU: o.result = a < b ? 1 : 0; break;
      case Op::SLLV: o.result = lo32(a << (b & 31)); break;
      case Op::SRLV: o.result = a >> (b & 31); break;
      case Op::SRAV: o.result = lo32(static_cast<uint32_t>(
                         sa >> (b & 31))); break;

      case Op::ADDI:
        o.result = lo32(a + static_cast<uint32_t>(inst.imm));
        break;
      case Op::ANDI:
        o.result = a & static_cast<uint32_t>(inst.imm);
        break;
      case Op::ORI:
        o.result = a | static_cast<uint32_t>(inst.imm);
        break;
      case Op::XORI:
        o.result = a ^ static_cast<uint32_t>(inst.imm);
        break;
      case Op::SLTI: o.result = sa < inst.imm ? 1 : 0; break;
      case Op::SLTIU:
        o.result = a < static_cast<uint32_t>(inst.imm) ? 1 : 0;
        break;
      case Op::SLL: o.result = lo32(a << (inst.imm & 31)); break;
      case Op::SRL: o.result = a >> (inst.imm & 31); break;
      case Op::SRA:
        o.result = lo32(static_cast<uint32_t>(sa >> (inst.imm & 31)));
        break;
      case Op::LUI:
        o.result = lo32(static_cast<uint32_t>(inst.imm) << 16);
        break;
      case Op::LI:
        o.result = static_cast<uint32_t>(inst.imm);
        break;

      case Op::MULT: {
        int64_t p = static_cast<int64_t>(sa) * static_cast<int64_t>(sb);
        o.result = lo32(static_cast<uint64_t>(p));          // LO
        o.result2 = lo32(static_cast<uint64_t>(p) >> 32);   // HI
        break;
      }
      case Op::MULTU: {
        uint64_t p = static_cast<uint64_t>(a) * static_cast<uint64_t>(b);
        o.result = lo32(p);
        o.result2 = lo32(p >> 32);
        break;
      }
      case Op::DIV:
        if (sb == 0 || (sa == INT32_MIN && sb == -1)) {
            o.result = 0;
            o.result2 = lo32(static_cast<uint32_t>(sa));
        } else {
            o.result = lo32(static_cast<uint32_t>(sa / sb));  // LO
            o.result2 = lo32(static_cast<uint32_t>(sa % sb)); // HI
        }
        break;
      case Op::DIVU:
        if (b == 0) {
            o.result = 0;
            o.result2 = a;
        } else {
            o.result = a / b;
            o.result2 = a % b;
        }
        break;
      case Op::MFHI:
      case Op::MFLO:
        o.result = a; // source (HI or LO) arrives as src0
        break;

      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::LW: case Op::L_D: {
        o.memAddr = a + static_cast<uint32_t>(inst.imm);
        unsigned sz = memSize(inst.op);
        uint64_t raw = mem(o.memAddr, sz);
        switch (inst.op) {
          case Op::LB:
            o.result = lo32(static_cast<uint32_t>(
                signExtendByte(static_cast<uint8_t>(raw))));
            break;
          case Op::LBU: o.result = raw & 0xff; break;
          case Op::LH:
            o.result = lo32(static_cast<uint32_t>(
                signExtendHalf(static_cast<uint16_t>(raw))));
            break;
          case Op::LHU: o.result = raw & 0xffff; break;
          case Op::LW: o.result = lo32(raw); break;
          case Op::L_D: o.result = raw; break;
          default: break;
        }
        break;
      }

      case Op::SB: case Op::SH: case Op::SW: case Op::S_D:
        o.memAddr = a + static_cast<uint32_t>(inst.imm);
        o.storeValue = inst.op == Op::S_D ? src1
                                          : static_cast<uint64_t>(b);
        break;

      case Op::BEQ: o.taken = a == b; break;
      case Op::BNE: o.taken = a != b; break;
      case Op::BLEZ: o.taken = sa <= 0; break;
      case Op::BGTZ: o.taken = sa > 0; break;
      case Op::BLTZ: o.taken = sa < 0; break;
      case Op::BGEZ: o.taken = sa >= 0; break;
      case Op::BC1T: o.taken = (src0 & 1) != 0; break;
      case Op::BC1F: o.taken = (src0 & 1) == 0; break;

      case Op::J:
        o.taken = true;
        break;
      case Op::JAL:
        o.taken = true;
        o.result = pc + 4; // link
        break;
      case Op::JR:
        o.taken = true;
        o.nextPC = a;
        break;
      case Op::JALR:
        o.taken = true;
        o.nextPC = a;
        o.result = pc + 4;
        break;

      case Op::ADD_D: o.result = fpResult(src0, src1, fa + fb); break;
      case Op::SUB_D: o.result = fpResult(src0, src1, fa - fb); break;
      case Op::MUL_D: o.result = fpResult(src0, src1, fa * fb); break;
      case Op::DIV_D:
        o.result = fb != 0.0 ? fpResult(src0, src1, fa / fb) : asBits(0.0);
        break;
      case Op::SQRT_D:
        o.result = asBits(fa >= 0.0 ? std::sqrt(fa) : 0.0);
        break;
      case Op::MOV_D: o.result = src0; break;
      case Op::NEG_D: o.result = asBits(-fa); break;
      case Op::C_EQ_D: o.result = fa == fb ? 1 : 0; break;
      case Op::C_LT_D: o.result = fa < fb ? 1 : 0; break;
      case Op::C_LE_D: o.result = fa <= fb ? 1 : 0; break;
      case Op::CVT_D_W: o.result = asBits(static_cast<double>(sa)); break;
      case Op::CVT_W_D:
        o.result = lo32(static_cast<uint32_t>(truncToInt32(fa)));
        break;

      default:
        panic("evalInstr: unhandled opcode");
    }

    // Direction-style control flow resolves against the encoded target.
    if (isCondBranch(inst.op)) {
        o.nextPC = o.taken ? inst.target : pc + 4;
    } else if (inst.op == Op::J || inst.op == Op::JAL) {
        o.nextPC = inst.target;
    }

    return o;
}


} // namespace vpir

#endif // VPIR_EMU_SEMANTICS_HH
