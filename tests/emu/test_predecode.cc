/**
 * @file
 * The predecoded program against the ISA's own decode definitions.
 *
 * Every executor — the core's fetch and speculative Emulator, the
 * lockstep checker, the warm-up, the limit study and the fuzz
 * end-state replay — reads one table built by predecode(). A wrong
 * entry would fool the core and its checker alike, so no
 * core-vs-reference comparison can catch it; these tests pin each
 * entry to decodeInfo()/srcRegs()/dstRegs()/memSize() directly.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "emu/engine.hh"
#include "isa/decode.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** The record's encoding of "no register". */
RegId
orZero(RegId r)
{
    return r == REG_INVALID ? REG_ZERO : r;
}

/** Operand shapes each opcode is decoded with: ordinary integer
 *  registers, r0 as source and destination, every field unused, and
 *  the FP/HI/LO end of the register space. */
std::vector<Instr>
shapesOf(Op op)
{
    std::vector<Instr> out;
    auto add = [&](RegId rd, RegId rd2, RegId rs, RegId rt) {
        Instr i;
        i.op = op;
        i.rd = rd;
        i.rd2 = rd2;
        i.rs = rs;
        i.rt = rt;
        i.imm = 12;
        i.target = 0x1000;
        out.push_back(i);
    };
    add(intReg(3), REG_INVALID, intReg(5), intReg(7));
    add(REG_ZERO, REG_HI, REG_ZERO, intReg(9));
    add(REG_INVALID, REG_INVALID, REG_INVALID, REG_INVALID);
    add(fpReg(31), REG_LO, fpReg(0), REG_FCC);
    return out;
}

} // anonymous namespace

TEST(Predecode, EveryOpMatchesTheIsaDefinitions)
{
    Program p;
    for (unsigned o = 0; o < static_cast<unsigned>(Op::NUM_OPS); ++o) {
        for (const Instr &i : shapesOf(static_cast<Op>(o)))
            p.text.push_back(i);
    }
    const DecodedProgram code = predecode(p);
    ASSERT_EQ(code.words.size(), p.text.size());
    EXPECT_EQ(code.textBase, p.textBase);
    EXPECT_EQ(code.entry, p.entry);

    for (size_t k = 0; k < p.text.size(); ++k) {
        const Instr &i = p.text[k];
        const Addr pc = p.textBase + static_cast<Addr>(4 * k);
        const std::string what = opName(i.op) + " shape " +
                                 std::to_string(k % 4);
        const DecodedInst *w = code.at(pc);
        ASSERT_EQ(w, &code.words[k]) << what;
        EXPECT_EQ(w->inst.op, i.op) << what;
        EXPECT_EQ(w->inst.rd, i.rd) << what;
        EXPECT_EQ(w->inst.rd2, i.rd2) << what;
        EXPECT_EQ(w->inst.rs, i.rs) << what;
        EXPECT_EQ(w->inst.rt, i.rt) << what;
        EXPECT_EQ(w->inst.imm, i.imm) << what;
        EXPECT_EQ(w->inst.target, i.target) << what;

        EXPECT_EQ(w->info, &decodeInfo(i.op)) << what;
        EXPECT_EQ(w->info->cls, decodeInfo(i.op).cls) << what;
        const SrcRegs s = srcRegs(i);
        const DstRegs d = dstRegs(i);
        EXPECT_EQ(w->src[0], orZero(s.src[0])) << what;
        EXPECT_EQ(w->src[1], orZero(s.src[1])) << what;
        EXPECT_EQ(w->dst[0], orZero(d.dst[0])) << what;
        EXPECT_EQ(w->dst[1], orZero(d.dst[1])) << what;
        EXPECT_EQ(w->memSz, memSize(i.op)) << what;
        if (isMem(i.op)) {
            // The third invalid case, a bad access size, cannot be
            // built: decode.hh proves every memory op's size is one of
            // these at compile time.
            EXPECT_TRUE(w->memSz == 1 || w->memSz == 2 || w->memSz == 4 ||
                        w->memSz == 8)
                << what;
        }

        const WordKind kind = i.op == Op::HALT ? WordKind::Halt
                              : isStore(i.op)  ? WordKind::Store
                                               : WordKind::Exec;
        EXPECT_EQ(w->kind, kind) << what;
        EXPECT_EQ(w->invalid, nullptr) << what;
    }
    // Off the text: below it, unaligned, past it.
    for (Addr pc : {Addr{p.textBase - 4}, Addr{p.textBase + 2},
                    p.textEnd()})
        EXPECT_EQ(code.at(pc), nullptr) << pc;
}

/** Each malformed word: decoded Invalid with the message its execution
 *  asserts with, skipped harmlessly by both executors when a branch
 *  jumps over it, and fatal to both when executed. */
TEST(Predecode, InvalidWordsAssertOnlyWhenExecutedOnBothExecutors)
{
    struct Case
    {
        const char *name;
        void (*spoil)(Instr &);
        const char *message;
    };
    const Case cases[] = {
        {"opcode past NUM_OPS",
         [](Instr &i) { i.op = Op::NUM_OPS; },
         "evalInstr: unhandled opcode"},
        {"destination out of range",
         [](Instr &i) {
             i.op = Op::ADDI;
             i.rd = 200;
             i.rs = T0;
         },
         "register id out of range"},
        {"source out of range",
         [](Instr &i) {
             i.op = Op::ADD;
             i.rd = T1;
             i.rs = T0;
             i.rt = NUM_ARCH_REGS;
         },
         "register id out of range"},
    };

    for (const Case &c : cases) {
        Assembler a;
        a.li(T0, 1);
        a.bgtz(T0, "skip");
        a.nop(); // spoiled below
        a.label("skip");
        a.halt();
        Program p = a.finish();
        c.spoil(p.text[2]);
        const Addr bad_pc = p.entry + 8;

        const DecodedProgram code = predecode(p);
        const DecodedInst &w = *code.at(bad_pc);
        EXPECT_EQ(w.kind, WordKind::Invalid) << c.name;
        ASSERT_NE(w.invalid, nullptr) << c.name;
        EXPECT_EQ(std::string(w.invalid), c.message) << c.name;
        EXPECT_EQ(w.src[0], REG_ZERO) << c.name;
        EXPECT_EQ(w.dst[0], REG_ZERO) << c.name;

        // Jumped over: both executors run the program to its HALT.
        {
            EmuState st;
            FuncEngine eng(code, st);
            EXPECT_EQ(eng.run(10), 3u) << c.name;
            EXPECT_TRUE(eng.halted()) << c.name;
        }
        {
            EmuState st;
            Emulator emu(st, p.entry);
            SemOut out;
            uint64_t src_vals[2];
            Addr pc = p.entry;
            unsigned n = 0;
            while (n < 10 && emu.execAt(pc, code.at(pc), out, src_vals)) {
                pc = emu.pc();
                ++n;
            }
            EXPECT_EQ(n, 2u) << c.name;
            EXPECT_TRUE(emu.halted()) << c.name;
        }

        // Executed: both assert with the word's message.
        PanicThrowScope throws;
        auto expectAssert = [&](const char *who, auto &&exec) {
            try {
                exec();
                ADD_FAILURE() << c.name << ": " << who << " executed it";
            } catch (const SimError &e) {
                EXPECT_NE(std::string(e.what()).find(c.message),
                          std::string::npos)
                    << c.name << ": " << who << ": " << e.what();
            }
        };
        EmuState st_eng;
        FuncEngine eng(code, st_eng);
        eng.setPC(bad_pc);
        expectAssert("FuncEngine", [&] { eng.run(1); });
        EmuState st_emu;
        Emulator emu(st_emu, p.entry);
        SemOut out;
        uint64_t src_vals[2];
        expectAssert("Emulator", [&] {
            emu.execAt(bad_pc, code.at(bad_pc), out, src_vals);
        });
    }
}
