/**
 * @file
 * Allocation-free steady state of the timing core (DESIGN.md §14).
 *
 * Everything the per-cycle pipeline touches is sized when the core is
 * built: the ROB and its reset-in-place entries, the fetch/LSQ rings,
 * the predictor checkpoint slab, the scheduler sets and waiter nodes,
 * the predictor/reuse tables, the RB load index and the event wheel's
 * node pool. After a warm-up (which grows the amortized buffers — the
 * undo journal, the memory pages the program touches — to their
 * working size), further cycles must not call the global allocator at
 * all, under every technique.
 *
 * The functional engine's run loop is held to the same rule.
 *
 * This file is its own test binary because it replaces the global
 * operator new/delete with counting versions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/core.hh"
#include "emu/engine.hh"
#include "fuzz/generator.hh"
#include "sim/configs.hh"
#include "workload/workload.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace vpir;

namespace
{

constexpr uint64_t WARMUP_CYCLES = 30000;
constexpr uint64_t MEASURED_CYCLES = 30000;

/** Warm a core up, then count allocations over the next cycles. The
 *  instruction budget is far beyond both phases, so the core is still
 *  running when measurement ends. */
void
expectAllocationFree(const Program &prog, CoreParams p,
                     const std::string &what)
{
    p.maxInsts = UINT64_MAX;
    Core core(p, prog);
    for (uint64_t i = 0; i < WARMUP_CYCLES; ++i)
        ASSERT_TRUE(core.cycle()) << what << ": finished during warm-up";
    uint64_t committed_before = core.stats().committedInsts;

    allocations = 0;
    counting = true;
    uint64_t ran = 0;
    while (ran < MEASURED_CYCLES && core.cycle())
        ++ran;
    counting = false;

    EXPECT_EQ(ran, MEASURED_CYCLES) << what << ": finished while measured";
    EXPECT_GT(core.stats().committedInsts, committed_before) << what;
    EXPECT_EQ(allocations.load(), 0u)
        << what << ": heap allocations in the steady-state cycle loop";
}

const Program &
gccProgram()
{
    static const Workload wl = makeWorkload("gcc");
    return wl.program;
}

/** A generated program long enough to outlast both phases. Fuzz
 *  programs are built around VP/IR hard cases (reuse chains, aliasing
 *  stores, call/return nests). */
const Program &
fuzzProgram()
{
    static const Program prog = [] {
        fuzz::GenOptions opt;
        opt.outerIters = 4000;
        return fuzz::generateProgram(0x5eed, opt);
    }();
    return prog;
}

/** Make a configuration squash-heavy: a tiny gshare mispredicts the
 *  generated program's data-dependent branches, and injected VPT
 *  faults feed wrong values to speculatively resolved branches
 *  (spurious squashes, re-executions, RB-recovered work). */
CoreParams
squashHeavy(CoreParams p)
{
    p.bpred.tableEntries = 64;
    p.bpred.historyBits = 6;
    p.faults.seed = 99;
    p.faults.vptValueRate = 0.05;
    p.faults.vptConfRate = 0.02;
    return p;
}

TEST(AllocFree, Base)
{
    expectAllocationFree(gccProgram(), baseConfig(), "base");
}

TEST(AllocFree, IrEarlyAndLate)
{
    expectAllocationFree(gccProgram(), irConfig(IrValidation::Early),
                         "ir-early");
    expectAllocationFree(gccProgram(), irConfig(IrValidation::Late),
                         "ir-late");
}

TEST(AllocFree, EveryVpConfiguration)
{
    for (VpScheme scheme : {VpScheme::Magic, VpScheme::Lvp}) {
        for (ReexecPolicy re :
             {ReexecPolicy::Multiple, ReexecPolicy::Single}) {
            for (BranchResolution br : {BranchResolution::Speculative,
                                        BranchResolution::NonSpeculative}) {
                std::string what =
                    std::string(scheme == VpScheme::Magic ? "magic"
                                                          : "lvp") +
                    "-" + vpConfigLabel(re, br);
                expectAllocationFree(gccProgram(),
                                     vpConfig(scheme, re, br, 0), what);
            }
        }
    }
}

TEST(AllocFree, Hybrid)
{
    expectAllocationFree(gccProgram(), hybridConfig(), "hybrid");
}

TEST(AllocFree, SquashHeavyFuzzProgram)
{
    CoreParams vp = squashHeavy(vpConfig(
        VpScheme::Magic, ReexecPolicy::Multiple,
        BranchResolution::Speculative, 0));
    Core probe(withLimits(vp, 40000), fuzzProgram());
    const CoreStats &st = probe.run();
    ASSERT_GE(st.branchSquashes, 200u)
        << "fuzz configuration is not squash-heavy enough to test";
    ASSERT_GT(st.spuriousSquashes, 0u);

    expectAllocationFree(fuzzProgram(), vp, "fuzz vp-magic-sb");
    expectAllocationFree(fuzzProgram(), squashHeavy(hybridConfig()),
                         "fuzz hybrid");
    expectAllocationFree(fuzzProgram(),
                         squashHeavy(irConfig(IrValidation::Late)),
                         "fuzz ir-late");
}

/** The functional engine's run loop, on a freshly loaded state and on
 *  a clone of a shared snapshot: once the pages it touches exist (and
 *  the shared ones it writes are cloned), running on allocates
 *  nothing. */
TEST(AllocFree, FunctionalEngineRun)
{
    constexpr uint64_t WARM = 300000, MEASURED = 300000;
    for (const char *name : {"gcc", "vortex", "ijpeg"}) {
        const Workload wl = makeWorkload(name);
        const EmuSnapshot snap = makeWarmSnapshot(wl.program, WARM);
        for (bool from_snapshot : {false, true}) {
            const std::string what =
                std::string(name) + (from_snapshot ? " snapshot" : "");
            EmuState st;
            if (from_snapshot)
                st = snap.state;
            else
                Emulator::loadProgram(wl.program, st);
            const DecodedProgram code = predecode(wl.program);
            FuncEngine eng(code, st);
            if (from_snapshot)
                eng.setPC(snap.pc);
            ASSERT_EQ(eng.run(WARM), WARM) << what;
            const size_t pages = st.residentPages();
            const uint64_t faults = st.cowFaults();

            allocations = 0;
            counting = true;
            uint64_t ran = eng.run(MEASURED);
            counting = false;

            ASSERT_EQ(ran, MEASURED) << what << ": halted while measured";
            ASSERT_EQ(st.residentPages(), pages)
                << what << ": touched a new page while measured";
            ASSERT_EQ(st.cowFaults(), faults)
                << what << ": cloned a shared page while measured";
            EXPECT_EQ(allocations.load(), 0u)
                << what << ": heap allocations in the engine's run loop";
        }
    }
}

} // anonymous namespace
