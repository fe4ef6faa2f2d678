/**
 * @file
 * Static decode information: instruction class, functional unit
 * requirements and latencies (paper Table 1), source/destination
 * register extraction, and memory access attributes; and the
 * predecoded program, the one per-word table every executor reads.
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

/** Every memory op accesses 1, 2, 4 or 8 bytes, the sizes EmuState's
 *  accessors take, and no other op has a size: checked once for the
 *  whole table instead of per instruction. */
static_assert([] {
    for (const DecodeInfo &d : decodeTable) {
        const bool mem = d.cls == InstClass::Load ||
                         d.cls == InstClass::Store;
        const unsigned sz = d.memSz;
        if (mem ? sz != 1 && sz != 2 && sz != 4 && sz != 8 : sz != 0)
            return false;
    }
    return true;
}(), "bad memory access size");

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

/** How an executor treats a predecoded text word. */
enum class WordKind : uint8_t
{
    Exec,    //!< evaluate, write destinations
    Store,   //!< evaluate, write memory, write destinations
    Halt,    //!< HALT
    Invalid, //!< malformed: asserts with its message if ever executed
};

/**
 * Everything decode derives from one program text word, resolved once
 * by predecode() so each dynamic instance costs one table load.
 *
 * "No register" is r0: it reads as zero, is never a dependence, and a
 * write to it is discarded, so an absent source or destination names
 * REG_ZERO and an executor reads and writes it without a branch.
 */
struct DecodedInst
{
    Instr inst;
    const DecodeInfo *info; //!< per-opcode facts (NOP's for a bad opcode)
    RegId src[2];           //!< srcRegs(inst), REG_ZERO when absent
    RegId dst[2];           //!< dstRegs(inst), REG_ZERO when absent
    uint8_t memSz;          //!< memSize(inst.op)
    WordKind kind;
    const char *invalid;    //!< kind Invalid: what its execution asserts
};

struct Program;

/**
 * A program's text predecoded, one DecodedInst per word: the only
 * decoded form of a program. The timing core's fetch, dispatch and
 * speculative Emulator read it, and so does every FuncEngine (warm-up,
 * lockstep checker, limit study, fuzz end-state replay). Immutable
 * once built; a Core builds one and lends it to its checker.
 */
struct DecodedProgram
{
    Addr textBase = 0;
    Addr entry = 0;
    std::vector<DecodedInst> words;

    /** The word at @p pc, or null off the text segment. */
    const DecodedInst *
    at(Addr pc) const
    {
        // Unsigned offset: a PC below the text base wraps past the end.
        const uint32_t off = pc - textBase;
        const size_t idx = off >> 2;
        return (off & 3) == 0 && idx < words.size() ? &words[idx]
                                                    : nullptr;
    }
};

/** Decode @p program's text. A word that fails the checks the
 *  executors would otherwise make on every access (opcode, register
 *  range) becomes WordKind::Invalid; it asserts only if executed. */
DecodedProgram predecode(const Program &program);

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
