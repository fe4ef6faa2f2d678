/**
 * @file
 * Generator unit tests: determinism, termination by construction,
 * full static Op coverage in every program, and the fuzz workload
 * naming scheme (including routing through makeWorkload).
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "emu/engine.hh"
#include "fuzz/generator.hh"
#include "fuzz/program_io.hh"
#include "isa/instr.hh"
#include "workload/workload.hh"

using namespace vpir;
using namespace vpir::fuzz;

TEST(FuzzGenerator, DeterministicForSeed)
{
    Program a = generateProgram(0x1234);
    Program b = generateProgram(0x1234);
    EXPECT_EQ(programToText(a), programToText(b));
}

TEST(FuzzGenerator, SeedsProduceDistinctPrograms)
{
    EXPECT_NE(programToText(generateProgram(1)),
              programToText(generateProgram(2)));
}

TEST(FuzzGenerator, EveryOpAppearsInEveryProgram)
{
    // The coverage block makes full static ISA coverage a structural
    // property, not a statistical one: any seed exercises the whole
    // assembler -> decode -> disasm surface.
    for (uint64_t seed : {0ull, 7ull, 0xdeadbeefull}) {
        Program p = generateProgram(seed);
        std::set<Op> seen;
        for (const Instr &i : p.text)
            seen.insert(i.op);
        for (int op = 0; op <= static_cast<int>(Op::HALT); ++op) {
            EXPECT_TRUE(seen.count(static_cast<Op>(op)))
                << "seed " << seed << " missing op "
                << opName(static_cast<Op>(op));
        }
    }
}

TEST(FuzzGenerator, ProgramsTerminate)
{
    for (uint64_t seed : {3ull, 0x5eedull, 0xffffffffull}) {
        Program p = generateProgram(seed);
        EmuState st;
        Emulator::loadProgram(p, st);
        const DecodedProgram code = predecode(p);
        FuncEngine eng(code, st);
        const uint64_t cap = 2000000;
        eng.run(cap);
        EXPECT_TRUE(eng.halted())
            << "seed " << seed << " still running after " << cap
            << " steps";
    }
}

TEST(FuzzGenerator, ScaledItersShortenRuns)
{
    GenOptions small;
    small.outerIters = 2;
    GenOptions big;
    big.outerIters = 50;
    auto run = [](const Program &p) {
        EmuState st;
        Emulator::loadProgram(p, st);
        const DecodedProgram code = predecode(p);
        return FuncEngine(code, st).run(5000000);
    };
    EXPECT_LT(run(generateProgram(11, small)),
              run(generateProgram(11, big)));
}

TEST(FuzzGenerator, WorkloadNameRoundTrip)
{
    uint64_t seed = 0xabcdef0123456789ull;
    std::string name = fuzzWorkloadName(seed);
    EXPECT_TRUE(isFuzzWorkloadName(name));
    EXPECT_EQ(fuzzSeedFromName(name), seed);

    EXPECT_FALSE(isFuzzWorkloadName("gcc"));
    EXPECT_FALSE(isFuzzWorkloadName("fuzz:"));
    EXPECT_FALSE(isFuzzWorkloadName("fuzz:xyz"));
    EXPECT_FALSE(isFuzzWorkloadName("fuzz:ABCDEF0123456789"));
}

TEST(FuzzGenerator, MakeWorkloadRoutesFuzzNames)
{
    std::string name = fuzzWorkloadName(0x77);
    Workload w = makeWorkload(name, WorkloadScale{});
    EXPECT_EQ(w.name, name);
    EXPECT_EQ(programToText(w.program),
              programToText(generateProgram(0x77)));
}
