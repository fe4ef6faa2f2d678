/**
 * @file
 * FuncEngine against a journaled reference: the speculative Emulator
 * stepped along the architectural path with every instruction retired
 * at once. After each run the two machines must agree on registers,
 * every resident page, PC, halt latch and the number of instructions
 * executed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "emu/engine.hh"
#include "fuzz/generator.hh"
#include "workload/workload.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** Test-local journaled reference machine, on a table of its own. */
struct JournaledRef
{
    DecodedProgram code;
    EmuState st;
    Emulator emu;
    Addr pc;
    bool halted = false;

    JournaledRef(const Program &p, const EmuState &init, Addr start)
        : code(predecode(p)), st(init), emu(st, start), pc(start)
    {
    }

    /** Mirror of FuncEngine::run(): up to @p n instructions, stopping
     *  after a halting one. */
    uint64_t
    run(uint64_t n)
    {
        uint64_t done = 0;
        SemOut out;
        uint64_t src_vals[2];
        while (done < n && !halted) {
            ++done;
            bool ok = emu.execAt(pc, code.at(pc), out, src_vals);
            st.retire(st.mark());
            if (!ok) {
                halted = true;
                break;
            }
            pc = emu.pc();
        }
        return done;
    }
};

/** Registers and every resident page in sorted order, as serialize()
 *  writes them, minus the journal mark, which only the journaled
 *  writer advances. */
std::string
archImage(const EmuState &s)
{
    CkptWriter w;
    s.serialize(w);
    std::string img = w.data();
    img.erase(NUM_ARCH_REGS * 8, 8);
    return img;
}

/** Run both machines @p n instructions and compare everything. */
void
runAndCompare(FuncEngine &eng, JournaledRef &ref, uint64_t n,
              const std::string &what)
{
    const JournalMark mark = eng.state().mark();
    const uint64_t ran = eng.run(n);
    EXPECT_EQ(ran, ref.run(n)) << what;
    EXPECT_EQ(eng.pc(), ref.pc) << what;
    EXPECT_EQ(eng.halted(), ref.halted) << what;
    EXPECT_EQ(eng.state().mark(), mark)
        << what << ": a functional run moved the journal mark";
    EXPECT_EQ(eng.state().residentPages(), ref.st.residentPages()) << what;
    EXPECT_TRUE(archImage(eng.state()) == archImage(ref.st))
        << what << ": architectural state differs";
}

EmuState
loaded(const Program &p)
{
    EmuState st;
    Emulator::loadProgram(p, st);
    return st;
}

} // anonymous namespace

TEST(FuncEngine, MatchesJournaledReferenceOnEveryWorkload)
{
    WorkloadScale sc;
    sc.factor = 0.05;
    for (const std::string &name : workloadNames()) {
        Workload w = makeWorkload(name, sc);
        EmuState st = loaded(w.program);
        const DecodedProgram code = predecode(w.program);
        FuncEngine eng(code, st);
        JournaledRef ref(w.program, st, w.program.entry);
        uint64_t at = 0;
        // Several offsets, then on to the halt.
        for (uint64_t n : {1ull, 6ull, 993ull, 24000ull, 100000000ull}) {
            runAndCompare(eng, ref, n,
                          name + " at " + std::to_string(at) + "+" +
                              std::to_string(n));
            at += n;
        }
        EXPECT_TRUE(eng.halted()) << name;
        // A halted engine executes nothing more.
        EXPECT_EQ(eng.run(10), 0u) << name;
    }
}

TEST(FuncEngine, WarmSnapshotMatchesJournaledReference)
{
    WorkloadScale sc;
    sc.factor = 0.05;
    for (const std::string &name : workloadNames()) {
        Workload w = makeWorkload(name, sc);
        for (uint64_t off : {0ull, 1ull, 5000ull, 30000ull}) {
            EmuSnapshot snap = makeWarmSnapshot(w.program, off);
            JournaledRef ref(w.program, loaded(w.program),
                             w.program.entry);
            ref.run(off);
            std::string what = name + " warmup " + std::to_string(off);
            EXPECT_EQ(snap.pc, ref.pc) << what;
            EXPECT_EQ(snap.halted, ref.halted) << what;
            EXPECT_TRUE(archImage(snap.state) == archImage(ref.st))
                << what;
        }
    }
}

TEST(FuncEngine, MatchesJournaledReferenceOnGeneratedPrograms)
{
    fuzz::GenOptions opt;
    opt.outerIters = 3;
    for (uint64_t seed = 0; seed < 256; ++seed) {
        Program p = fuzz::generateProgram(seed * 0x9e3779b97f4a7c15ull, opt);
        EmuState st = loaded(p);
        const DecodedProgram code = predecode(p);
        FuncEngine eng(code, st);
        JournaledRef ref(p, st, p.entry);
        std::string what = "seed " + std::to_string(seed);
        runAndCompare(eng, ref, 37, what + " prefix");
        runAndCompare(eng, ref, 5000000, what);
        ASSERT_TRUE(eng.halted()) << what;
    }
}

/** Programs that add and multiply NaNs with different payloads: the
 *  engine's compilation of the semantics must pick the same NaN as the
 *  core's, in run() and in step() alike. */
TEST(FuncEngine, FloatingPointNaNsMatchJournaledReference)
{
    Assembler a;
    a.dataLabel("nans");
    a.words({0x00000001, 0x7ff80000,   // quiet NaN, positive
             0x00000002, 0xfff80000,   // quiet NaN, negative
             0x00000003, 0x7ff00000}); // signaling NaN
    a.la(T0, "nans");
    a.ld(fpReg(1), T0, 0);
    a.ld(fpReg(2), T0, 8);
    a.ld(fpReg(3), T0, 16);
    for (int k = 0; k < 2; ++k) {
        RegId x = fpReg(k ? 2 : 1), y = fpReg(k ? 1 : 2);
        a.add_d(fpReg(4 + 8 * k), x, y);
        a.mul_d(fpReg(5 + 8 * k), x, y);
        a.sub_d(fpReg(6 + 8 * k), x, y);
        a.div_d(fpReg(7 + 8 * k), x, y);
        a.add_d(fpReg(8 + 8 * k), fpReg(3), y);
        a.mul_d(fpReg(9 + 8 * k), y, fpReg(3));
        a.neg_d(fpReg(10 + 8 * k), x);
        a.cvt_w_d(T1 + k, x);
    }
    a.halt();
    Program p = a.finish();
    // And the generated programs the fuzz campaign first caught at it.
    std::vector<Program> progs = {p};
    for (uint64_t seed : {0x8e40ea7bd1de69d9ull, 0xbe7785f945120c49ull,
                          0xc2c3dac3ce5a3956ull, 0x9c188b269cc959f5ull})
        progs.push_back(fuzz::generateProgram(seed));

    for (const Program &prog : progs) {
        EmuState st = loaded(prog);
        const DecodedProgram code = predecode(prog);
        FuncEngine eng(code, st);
        JournaledRef ref(prog, st, prog.entry);
        runAndCompare(eng, ref, 10000000, "nan program");
        ASSERT_TRUE(eng.halted());

        EmuState st2 = loaded(prog);
        FuncEngine stepper(code, st2);
        SemOut out;
        uint64_t src_vals[2];
        while (stepper.step(out, src_vals)) {
        }
        EXPECT_TRUE(archImage(st2) == archImage(ref.st))
            << "step() disagrees with the journaled path";
    }
}

TEST(FuncEngine, HaltStepAndOffTextPc)
{
    Assembler a;
    a.li(T0, 5);
    a.halt();
    Program p = a.finish();
    const DecodedProgram code = predecode(p);

    // The HALT step counts, latches the halt, and leaves the PC on it.
    {
        EmuState st;
        FuncEngine eng(code, st);
        JournaledRef ref(p, st, p.entry);
        runAndCompare(eng, ref, 10, "halt");
        EXPECT_EQ(eng.pc(), p.entry + 4);
        EXPECT_TRUE(eng.halted());
        // step() at the HALT reports it again with a zero outcome.
        SemOut out;
        out.result = 1;
        uint64_t src_vals[2] = {1, 1};
        EXPECT_FALSE(eng.step(out, src_vals));
        EXPECT_EQ(out.result, 0u);
        EXPECT_EQ(src_vals[0], 0u);
        EXPECT_EQ(eng.pc(), p.entry + 4);
    }

    // A PC past the text, below it, or not word-aligned halts too.
    for (Addr pc : {Addr{0xdead0000}, Addr{p.textBase - 4},
                    Addr{p.entry + 2}, p.textEnd()}) {
        EmuState st;
        FuncEngine eng(code, st);
        eng.setPC(pc);
        JournaledRef ref(p, st, pc);
        runAndCompare(eng, ref, 3, "pc " + std::to_string(pc));
        EXPECT_TRUE(eng.halted());
        EXPECT_EQ(eng.pc(), pc);
    }
}

TEST(FuncEngine, CrossPageUnalignedLoadAndStore)
{
    // 0x7000 begins a page; the page below it is written first, the
    // one above it is first created by the straddling stores.
    Assembler a;
    a.li(T1, 0x6ffe);
    a.li(T0, 0x12345678);
    a.sb(T0, T1, -14); // 0x6ff0: the lower page only
    a.sw(T0, T1, 0);   // 0x6ffe..0x7001
    a.lw(T2, T1, 0);
    a.lhu(T3, T1, 1);  // 0x6fff..0x7000
    a.lh(T4, T1, 1);
    a.cvt_d_w(fpReg(2), T0);
    a.sd(fpReg(2), T1, -3); // 0x6ffb..0x7002
    a.ld(fpReg(4), T1, -3);
    a.lw(T5, T1, 2);   // 0x7000..0x7003, upper page
    a.halt();
    Program p = a.finish();

    EmuState st;
    const DecodedProgram code = predecode(p);
    FuncEngine eng(code, st);
    JournaledRef ref(p, st, p.entry);
    runAndCompare(eng, ref, 100, "cross-page");
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(st.readReg(T2), 0x12345678u);
    EXPECT_EQ(st.readReg(T3), 0x3456u);
    EXPECT_EQ(st.readReg(T4), 0x3456u);
    EXPECT_EQ(st.readReg(fpReg(4)), st.readReg(fpReg(2)));
    EXPECT_EQ(st.readMem(0x6ffb, 8), st.readReg(fpReg(2)));
    EXPECT_EQ(st.readReg(T5), st.readMem(0x7000, 4));
    EXPECT_EQ(st.readMem(0x6ff0, 1), 0x78u);
}

TEST(FuncEngine, RunFromSharedSnapshotLeavesSourceUntouched)
{
    WorkloadScale sc;
    sc.factor = 0.1;
    for (const char *name : {"vortex", "compress", "go"}) {
        Workload w = makeWorkload(name, sc);
        const EmuSnapshot snap = makeWarmSnapshot(w.program, 20000);
        ASSERT_FALSE(snap.halted) << name;
        const std::string before = archImage(snap.state);

        // Two engines on two clones, interleaved, against references
        // on clones of their own: writes to the shared pages must
        // clone them, never reach the snapshot or the other clone.
        EmuState a = snap.state;
        EmuState b = snap.state;
        const DecodedProgram code = predecode(w.program);
        FuncEngine ea(code, a);
        FuncEngine eb(code, b);
        ea.setPC(snap.pc);
        eb.setPC(snap.pc);
        JournaledRef ra(w.program, snap.state, snap.pc);
        JournaledRef rb(w.program, snap.state, snap.pc);
        for (uint64_t n : {1ull, 500ull, 20000ull}) {
            runAndCompare(ea, ra, n, std::string(name) + " a");
            runAndCompare(eb, rb, 2 * n, std::string(name) + " b");
        }
        EXPECT_GT(a.cowFaults(), snap.state.cowFaults()) << name;
        EXPECT_GT(b.cowFaults(), snap.state.cowFaults()) << name;
        EXPECT_TRUE(archImage(snap.state) == before)
            << name << ": a clone's write reached the snapshot";

        // A copy taken mid-run freezes: the engine's next writes to the
        // pages its write cache names must clone them first.
        const EmuState frozen = a;
        const std::string at_copy = archImage(frozen);
        runAndCompare(ea, ra, 20000, std::string(name) + " after copy");
        EXPECT_TRUE(archImage(frozen) == at_copy)
            << name << ": the engine wrote through to a copy of its state";
    }
}

TEST(FuncEngine, InvalidInstructionAssertsOnlyWhenExecuted)
{
    Assembler a;
    a.li(T0, 1);
    a.bgtz(T0, "skip");
    a.nop(); // becomes an out-of-range register write below
    a.label("skip");
    a.halt();
    Program p = a.finish();
    p.text[2].op = Op::ADDI;
    p.text[2].rd = 200;
    p.text[2].rs = T0;

    // Validated once by predecode(), but a bad instruction that never
    // runs does not stop the program.
    const DecodedProgram code = predecode(p);
    EmuState st;
    FuncEngine eng(code, st);
    EXPECT_EQ(eng.run(10), 3u);
    EXPECT_TRUE(eng.halted());

    // Executing it fails with the journaled path's message.
    PanicThrowScope throws;
    EmuState st2;
    FuncEngine bad(code, st2);
    bad.setPC(p.entry + 8);
    try {
        bad.run(1);
        FAIL() << "out-of-range register executed";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("register id out of range"),
                  std::string::npos)
            << e.what();
    }
}
