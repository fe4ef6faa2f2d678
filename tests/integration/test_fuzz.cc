/**
 * @file
 * Randomised program fuzzing: generate programs covering the whole
 * ISA (integer ALU, mult/div, all load/store widths, FP arithmetic,
 * forward branches, calls), then check that every technique commits
 * exactly the functional-execution result. This is the widest
 * correctness net in the repository: any timing-model bug that leaks
 * into architectural state trips it.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "emu/engine.hh"
#include "sim/configs.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** Generate a random but surely-terminating program. */
Program
fuzzProgram(uint64_t seed)
{
    Rng rng(seed);
    Assembler a;

    a.dataLabel("scratch");
    for (int i = 0; i < 256; ++i)
        a.word(static_cast<uint32_t>(rng.next()));
    a.dataLabel("fpdata");
    for (int i = 0; i < 16; ++i)
        a.dword(static_cast<double>(rng.range(-50, 50)) / 4.0);

    const RegId ipool[8] = {T0, T1, T2, T3, T4, T5, T6, T7};
    auto ireg = [&]() { return ipool[rng.below(8)]; };
    auto freg = [&]() { return fpReg(rng.below(6)); };

    a.la(S0, "scratch");
    a.la(S2, "fpdata");
    a.li(S1, 40); // outer iterations
    // Seed the integer pool.
    for (int i = 0; i < 8; ++i)
        a.li(ipool[i], static_cast<int32_t>(rng.next()));
    // Seed the FP pool from integer values.
    for (int i = 0; i < 6; ++i)
        a.cvt_d_w(fpReg(i), ipool[i % 8]);

    int label_n = 0;
    a.label("loop");
    const int body = 60;
    for (int i = 0; i < body; ++i) {
        uint64_t k = rng.below(100);
        if (k < 30) {
            // Integer ALU, register form.
            Op ops[] = {Op::ADD, Op::SUB, Op::AND, Op::OR, Op::XOR,
                        Op::NOR, Op::SLT, Op::SLTU, Op::SLLV,
                        Op::SRLV, Op::SRAV};
            Op op = ops[rng.below(std::size(ops))];
            Instr inst;
            inst.op = op;
            inst.rd = ireg();
            inst.rs = ireg();
            inst.rt = ireg();
            // Emit through the typed API for coverage of it too.
            switch (op) {
              case Op::ADD: a.add(inst.rd, inst.rs, inst.rt); break;
              case Op::SUB: a.sub(inst.rd, inst.rs, inst.rt); break;
              case Op::AND: a.and_(inst.rd, inst.rs, inst.rt); break;
              case Op::OR: a.or_(inst.rd, inst.rs, inst.rt); break;
              case Op::XOR: a.xor_(inst.rd, inst.rs, inst.rt); break;
              case Op::NOR: a.nor(inst.rd, inst.rs, inst.rt); break;
              case Op::SLT: a.slt(inst.rd, inst.rs, inst.rt); break;
              case Op::SLTU: a.sltu(inst.rd, inst.rs, inst.rt); break;
              case Op::SLLV: a.sllv(inst.rd, inst.rs, inst.rt); break;
              case Op::SRLV: a.srlv(inst.rd, inst.rs, inst.rt); break;
              default: a.srav(inst.rd, inst.rs, inst.rt); break;
            }
        } else if (k < 42) {
            // Immediate forms.
            int32_t imm = static_cast<int32_t>(rng.range(-512, 512));
            switch (rng.below(5)) {
              case 0: a.addi(ireg(), ireg(), imm); break;
              case 1: a.andi(ireg(), ireg(), imm & 0xffff); break;
              case 2: a.ori(ireg(), ireg(), imm & 0xffff); break;
              case 3: a.slti(ireg(), ireg(), imm); break;
              default:
                a.sll(ireg(), ireg(),
                      static_cast<unsigned>(rng.below(31)));
                break;
            }
        } else if (k < 50) {
            // Multiply / divide through HI/LO.
            if (rng.chance(1, 2))
                a.mult(ireg(), ireg());
            else
                a.div(ireg(), ireg());
            a.mflo(ireg());
            a.mfhi(ireg());
        } else if (k < 66) {
            // Memory, every width; offsets stay inside scratch.
            int32_t off =
                static_cast<int32_t>(rng.below(256)) & ~7;
            switch (rng.below(8)) {
              case 0: a.lw(ireg(), S0, off); break;
              case 1: a.lb(ireg(), S0, off); break;
              case 2: a.lbu(ireg(), S0, off); break;
              case 3: a.lh(ireg(), S0, off); break;
              case 4: a.lhu(ireg(), S0, off); break;
              case 5: a.sw(ireg(), S0, off); break;
              case 6: a.sb(ireg(), S0, off); break;
              default: a.sh(ireg(), S0, off); break;
            }
        } else if (k < 78) {
            // Floating point.
            switch (rng.below(7)) {
              case 0: a.add_d(freg(), freg(), freg()); break;
              case 1: a.sub_d(freg(), freg(), freg()); break;
              case 2: a.mul_d(freg(), freg(), freg()); break;
              case 3: a.mov_d(freg(), freg()); break;
              case 4: a.neg_d(freg(), freg()); break;
              case 5:
                a.ld(freg(), S2,
                     static_cast<int32_t>(rng.below(16)) * 8);
                break;
              default:
                a.cvt_w_d(ireg(), freg());
                break;
            }
        } else if (k < 86) {
            // FP compare + conditional branch over one instruction.
            std::string skip = "fskip" + std::to_string(label_n++);
            a.c_lt_d(freg(), freg());
            if (rng.chance(1, 2))
                a.bc1t(skip);
            else
                a.bc1f(skip);
            a.addi(ireg(), ireg(), 1);
            a.label(skip);
        } else if (k < 96) {
            // Integer conditional forward branch over 1-2 insts.
            std::string skip = "skip" + std::to_string(label_n++);
            switch (rng.below(4)) {
              case 0: a.beq(ireg(), ireg(), skip); break;
              case 1: a.bne(ireg(), ireg(), skip); break;
              case 2: a.blez(ireg(), skip); break;
              default: a.bgtz(ireg(), skip); break;
            }
            a.xori(ireg(), ireg(),
                   static_cast<int32_t>(rng.below(256)));
            if (rng.chance(1, 2))
                a.addi(ireg(), ireg(), 3);
            a.label(skip);
        } else {
            // Call one of the leaf helpers.
            a.jal(rng.chance(1, 2) ? "leaf_a" : "leaf_b");
        }
    }
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();

    a.label("leaf_a");
    a.addi(T8, T8, 1);
    a.sw(T8, S0, 1020);
    a.jr(RA);
    a.label("leaf_b");
    a.lw(T9, S0, 1016);
    a.add(T9, T9, T8);
    a.sw(T9, S0, 1016);
    a.jr(RA);

    return a.finish();
}

uint64_t
checksum(EmuState &st, const Program &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (unsigned r = 1; r < NUM_ARCH_REGS; ++r)
        mix(st.readReg(static_cast<RegId>(r)));
    for (const auto &[base, seg] : p.dataInit) {
        for (size_t off = 0; off < seg.size(); off += 4)
            mix(st.readMem(base + static_cast<Addr>(off), 4));
    }
    return h;
}

} // anonymous namespace

class FuzzSuite : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzSuite, AllTechniquesMatchFunctionalExecution)
{
    Program p = fuzzProgram(GetParam());

    // Functional reference.
    EmuState ref_state;
    Emulator::loadProgram(p, ref_state);
    const DecodedProgram code = predecode(p);
    FuncEngine eng(code, ref_state);
    const uint64_t ref_n = eng.run(2000000);
    ASSERT_TRUE(eng.halted());
    uint64_t ref_sum = checksum(ref_state, p);

    CoreParams cfgs[] = {
        baseConfig(),
        irConfig(),
        irConfig(IrValidation::Late),
        vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                 BranchResolution::Speculative, 1),
        vpConfig(VpScheme::Lvp, ReexecPolicy::Single,
                 BranchResolution::NonSpeculative, 1),
        hybridConfig(),
    };
    for (const CoreParams &cfg : cfgs) {
        Core core(cfg, p);
        const CoreStats &st = core.run();
        ASSERT_TRUE(st.haltedCleanly)
            << "technique " << static_cast<int>(cfg.technique);
        EXPECT_EQ(st.committedInsts, ref_n)
            << "technique " << static_cast<int>(cfg.technique);
        EXPECT_EQ(checksum(core.emuState(), p), ref_sum)
            << "technique " << static_cast<int>(cfg.technique);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));
