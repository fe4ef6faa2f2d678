/** @file Tests for the seven synthetic SPEC95int-like workloads. */

#include <gtest/gtest.h>

#include "emu/engine.hh"
#include "isa/decode.hh"
#include "workload/workload.hh"

using namespace vpir;

namespace
{

/** Run a workload functionally; return executed instructions. */
uint64_t
runFunctional(const Program &p, uint64_t cap)
{
    EmuState st;
    Emulator::loadProgram(p, st);
    const DecodedProgram code = predecode(p);
    return FuncEngine(code, st).run(cap);
}

} // anonymous namespace

TEST(Workloads, NamesMatchThePaper)
{
    const auto &names = workloadNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "go");
    EXPECT_EQ(names[1], "m88ksim");
    EXPECT_EQ(names[2], "ijpeg");
    EXPECT_EQ(names[3], "perl");
    EXPECT_EQ(names[4], "vortex");
    EXPECT_EQ(names[5], "gcc");
    EXPECT_EQ(names[6], "compress");
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_DEATH(
        {
            Workload w = makeWorkload("spice");
            (void)w;
        },
        "unknown workload");
}

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, HaltsAtSmallScale)
{
    WorkloadScale sc;
    sc.factor = 0.01;
    Workload w = makeWorkload(GetParam(), sc);
    EmuState st;
    Emulator::loadProgram(w.program, st);
    const DecodedProgram code = predecode(w.program);
    FuncEngine eng(code, st);
    uint64_t n = eng.run(5000000);
    ASSERT_TRUE(eng.halted()) << "did not halt";
    EXPECT_GT(n, 1000u);
}

TEST_P(WorkloadSuite, DeterministicBuild)
{
    Workload a = makeWorkload(GetParam());
    Workload b = makeWorkload(GetParam());
    ASSERT_EQ(a.program.text.size(), b.program.text.size());
    ASSERT_EQ(a.program.dataInit.size(), b.program.dataInit.size());
    EXPECT_EQ(a.program.dataInit.front().second,
              b.program.dataInit.front().second);
    for (size_t i = 0; i < a.program.text.size(); ++i) {
        EXPECT_EQ(a.program.text[i].op, b.program.text[i].op);
        EXPECT_EQ(a.program.text[i].imm, b.program.text[i].imm);
    }
}

TEST_P(WorkloadSuite, FullScaleIsRoughlyMillionInstructions)
{
    Workload w = makeWorkload(GetParam());
    uint64_t n = runFunctional(w.program, 10000000);
    // Order-of-magnitude check: run lengths sized per DESIGN.md.
    EXPECT_GT(n, 300000u);
    EXPECT_LE(n, 10000000u);
}

TEST_P(WorkloadSuite, ScaleControlsLength)
{
    WorkloadScale small, big;
    small.factor = 0.2;
    big.factor = 0.8;
    uint64_t ns =
        runFunctional(makeWorkload(GetParam(), small).program,
                      40000000);
    uint64_t nb =
        runFunctional(makeWorkload(GetParam(), big).program,
                      40000000);
    EXPECT_GT(nb, static_cast<uint64_t>(ns * 1.8));
}

TEST_P(WorkloadSuite, UsesMemoryAndBranches)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    Workload w = makeWorkload(GetParam(), sc);
    EmuState st;
    Emulator::loadProgram(w.program, st);
    const DecodedProgram code = predecode(w.program);
    FuncEngine eng(code, st);
    SemOut out;
    uint64_t src_vals[2];
    uint64_t loads = 0, stores = 0, branches = 0, total = 0;
    while (!eng.halted() && total < 200000) {
        const Op op = w.program.at(eng.pc())->op;
        eng.step(out, src_vals);
        ++total;
        if (isLoad(op))
            ++loads;
        if (isStore(op))
            ++stores;
        if (isCondBranch(op))
            ++branches;
    }
    // Every benchmark should have a realistic mix. (m88ksim's
    // direct-threaded dispatch has the lowest conditional-branch
    // density, ~3%.)
    EXPECT_GT(loads, total / 20);
    EXPECT_GT(stores, total / 200);
    EXPECT_GT(branches, total / 40);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadSuite,
                         ::testing::ValuesIn(workloadNames()));
