/**
 * @file
 * Static decode information: instruction class, functional unit
 * requirements and latencies (paper Table 1), source/destination
 * register extraction, and memory access attributes.
 */

#ifndef VPIR_ISA_DECODE_HH
#define VPIR_ISA_DECODE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instr.hh"

namespace vpir
{

/** Broad instruction classes used by scheduling and statistics. */
enum class InstClass : uint8_t
{
    Nop,
    IntAlu,
    IntMult,
    IntDiv,
    Load,
    Store,
    Branch,   //!< conditional branches (incl. BC1x)
    Jump,     //!< unconditional J/JAL/JR/JALR
    FpAdd,    //!< add/sub/compare/convert/move
    FpMult,
    FpDiv,
    FpSqrt,
    Halt,
};

/** Functional unit kinds, with pool sizes from Table 1. */
enum class FuType : uint8_t
{
    None,      //!< no FU needed (NOP/HALT)
    IntAlu,    //!< 8 units; also executes branches/jumps
    LoadStore, //!< 2 units
    FpAdder,   //!< 4 units
    IntMulDiv, //!< 1 unit
    FpMulDiv,  //!< 1 unit
    NUM_TYPES
};

/** Pool size for each FU type (Table 1). */
unsigned fuPoolSize(FuType t);

/** How an opcode names its source registers (srcRegs()). */
enum class SrcForm : uint8_t
{
    None, //!< no register sources
    Rs,   //!< rs only
    RsRt, //!< rs and rt
    Fcc,  //!< the FP condition code (BC1T/BC1F)
    Hi,   //!< HI (MFHI)
    Lo,   //!< LO (MFLO)
};

/** Per-opcode static information. */
struct DecodeInfo
{
    InstClass cls;
    FuType fu;
    uint8_t opLat;    //!< total execution latency, cycles
    uint8_t issueLat; //!< cycles before the FU accepts another op
    SrcForm src;      //!< source-register form
    uint8_t memSz;    //!< memory access bytes (0 for non-memory ops)
};

namespace detail
{

/** Build the per-opcode decode table (latencies from Table 1). Every
 *  opcode below NUM_OPS gets an entry; the table is a compile-time
 *  constant so the per-instruction helpers below inline to one load. */
constexpr std::array<DecodeInfo, static_cast<size_t>(Op::NUM_OPS)>
buildDecodeTable()
{
    using C = InstClass;
    using F = FuType;
    using S = SrcForm;
    std::array<DecodeInfo, static_cast<size_t>(Op::NUM_OPS)> t{};

    auto set = [&t](Op op, C c, F f, uint8_t lat, uint8_t iss, S src,
                    uint8_t sz = 0) {
        t[static_cast<size_t>(op)] = DecodeInfo{c, f, lat, iss, src, sz};
    };

    set(Op::NOP, C::Nop, F::None, 0, 0, S::None);
    set(Op::HALT, C::Halt, F::None, 0, 0, S::None);

    for (Op op : {Op::ADD, Op::SUB, Op::AND, Op::OR, Op::XOR, Op::NOR,
                  Op::SLT, Op::SLTU, Op::SLLV, Op::SRLV, Op::SRAV}) {
        set(op, C::IntAlu, F::IntAlu, 1, 1, S::RsRt);
    }
    for (Op op : {Op::ADDI, Op::ANDI, Op::ORI, Op::XORI, Op::SLTI,
                  Op::SLTIU, Op::SLL, Op::SRL, Op::SRA}) {
        set(op, C::IntAlu, F::IntAlu, 1, 1, S::Rs);
    }
    set(Op::LUI, C::IntAlu, F::IntAlu, 1, 1, S::None);
    set(Op::LI, C::IntAlu, F::IntAlu, 1, 1, S::None);
    set(Op::MFHI, C::IntAlu, F::IntAlu, 1, 1, S::Hi);
    set(Op::MFLO, C::IntAlu, F::IntAlu, 1, 1, S::Lo);

    for (Op op : {Op::MULT, Op::MULTU})
        set(op, C::IntMult, F::IntMulDiv, 3, 1, S::RsRt);
    for (Op op : {Op::DIV, Op::DIVU})
        set(op, C::IntDiv, F::IntMulDiv, 20, 19, S::RsRt);

    set(Op::LB, C::Load, F::LoadStore, 1, 1, S::Rs, 1);
    set(Op::LBU, C::Load, F::LoadStore, 1, 1, S::Rs, 1);
    set(Op::LH, C::Load, F::LoadStore, 1, 1, S::Rs, 2);
    set(Op::LHU, C::Load, F::LoadStore, 1, 1, S::Rs, 2);
    set(Op::LW, C::Load, F::LoadStore, 1, 1, S::Rs, 4);
    set(Op::L_D, C::Load, F::LoadStore, 1, 1, S::Rs, 8);
    set(Op::SB, C::Store, F::LoadStore, 1, 1, S::RsRt, 1);
    set(Op::SH, C::Store, F::LoadStore, 1, 1, S::RsRt, 2);
    set(Op::SW, C::Store, F::LoadStore, 1, 1, S::RsRt, 4);
    set(Op::S_D, C::Store, F::LoadStore, 1, 1, S::RsRt, 8);

    for (Op op : {Op::BEQ, Op::BNE})
        set(op, C::Branch, F::IntAlu, 1, 1, S::RsRt);
    for (Op op : {Op::BLEZ, Op::BGTZ, Op::BLTZ, Op::BGEZ})
        set(op, C::Branch, F::IntAlu, 1, 1, S::Rs);
    for (Op op : {Op::BC1T, Op::BC1F})
        set(op, C::Branch, F::IntAlu, 1, 1, S::Fcc);
    for (Op op : {Op::J, Op::JAL})
        set(op, C::Jump, F::IntAlu, 1, 1, S::None);
    for (Op op : {Op::JR, Op::JALR})
        set(op, C::Jump, F::IntAlu, 1, 1, S::Rs);

    for (Op op : {Op::ADD_D, Op::SUB_D, Op::C_EQ_D, Op::C_LT_D,
                  Op::C_LE_D}) {
        set(op, C::FpAdd, F::FpAdder, 2, 1, S::RsRt);
    }
    for (Op op : {Op::CVT_D_W, Op::CVT_W_D, Op::MOV_D, Op::NEG_D})
        set(op, C::FpAdd, F::FpAdder, 2, 1, S::Rs);
    set(Op::MUL_D, C::FpMult, F::FpMulDiv, 4, 1, S::RsRt);
    set(Op::DIV_D, C::FpDiv, F::FpMulDiv, 12, 12, S::RsRt);
    set(Op::SQRT_D, C::FpSqrt, F::FpMulDiv, 24, 24, S::Rs);

    return t;
}

inline constexpr std::array<DecodeInfo, static_cast<size_t>(Op::NUM_OPS)>
    decodeTable = buildDecodeTable();

} // namespace detail

/** Decode table lookup. */
inline const DecodeInfo &
decodeInfo(Op op)
{
    return detail::decodeTable[static_cast<size_t>(op)];
}

/** Up to two source registers (REG_INVALID when absent). */
struct SrcRegs
{
    RegId src[2];
};

/** Extract the architectural source registers of an instruction.
 *  r0 reads are not dependences and come back as REG_INVALID. */
inline SrcRegs
srcRegs(const Instr &inst)
{
    SrcRegs s{{REG_INVALID, REG_INVALID}};
    switch (decodeInfo(inst.op).src) {
      case SrcForm::None:
        break;
      case SrcForm::Rs:
        s.src[0] = inst.rs;
        break;
      case SrcForm::RsRt:
        s.src[0] = inst.rs;
        s.src[1] = inst.rt;
        break;
      case SrcForm::Fcc:
        s.src[0] = REG_FCC;
        break;
      case SrcForm::Hi:
        s.src[0] = REG_HI;
        break;
      case SrcForm::Lo:
        s.src[0] = REG_LO;
        break;
    }
    for (RegId &r : s.src) {
        if (r == REG_ZERO)
            r = REG_INVALID;
    }
    return s;
}

/** Up to two destination registers (REG_INVALID when absent). */
struct DstRegs
{
    RegId dst[2];
};

/** Extract the architectural destination registers (writes to r0 are
 *  discarded and come back as REG_INVALID). */
inline DstRegs
dstRegs(const Instr &inst)
{
    return DstRegs{{inst.rd == REG_ZERO ? REG_INVALID : inst.rd,
                    inst.rd2 == REG_ZERO ? REG_INVALID : inst.rd2}};
}

/** Memory access size in bytes (0 for non-memory ops). */
inline unsigned
memSize(Op op)
{
    return decodeInfo(op).memSz;
}

/**
 * Everything decode derives from one static instruction, resolved once
 * per program text word (Core and Emulator build a table of these at
 * construction) so each dynamic instance costs one table load.
 */
struct StaticInst
{
    const DecodeInfo *info; //!< per-opcode facts
    SrcRegs src;            //!< srcRegs() of the instruction
    DstRegs dst;            //!< dstRegs() of the instruction
};

/** Decode table for a program text, one StaticInst per word. */
inline std::vector<StaticInst>
predecode(const std::vector<Instr> &text)
{
    std::vector<StaticInst> out;
    out.reserve(text.size());
    for (const Instr &i : text)
        out.push_back(StaticInst{&decodeInfo(i.op), srcRegs(i), dstRegs(i)});
    return out;
}

inline bool
isLoad(Op op)
{
    return decodeInfo(op).cls == InstClass::Load;
}

inline bool
isStore(Op op)
{
    return decodeInfo(op).cls == InstClass::Store;
}

inline bool
isMem(Op op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isCondBranch(Op op)
{
    return decodeInfo(op).cls == InstClass::Branch;
}

inline bool
isJump(Op op)
{
    return decodeInfo(op).cls == InstClass::Jump;
}

/** Any control transfer: conditional branch or jump. */
inline bool
isControl(Op op)
{
    return isCondBranch(op) || isJump(op);
}

/** True for JR/JALR whose target comes from a register. */
inline bool
isIndirectJump(Op op)
{
    return op == Op::JR || op == Op::JALR;
}

/** True for call-like ops that push the return address (JAL/JALR). */
inline bool
isCall(Op op)
{
    return op == Op::JAL || op == Op::JALR;
}

/** True for JR r31, i.e. a function return (by convention). */
inline bool
isReturn(const Instr &inst)
{
    return inst.op == Op::JR && inst.rs == REG_RA;
}

/** True when the instruction produces a register result. */
inline bool
producesResult(const Instr &inst)
{
    return inst.rd != REG_INVALID || inst.rd2 != REG_INVALID;
}

} // namespace vpir

#endif // VPIR_ISA_DECODE_HH
