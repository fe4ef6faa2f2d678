/**
 * @file
 * Microbenchmarks (google-benchmark) for the hardware-structure
 * models and the simulator itself: operations per second for VPT
 * predict/update, RB probe/insert, cache accesses, gshare rounds,
 * functional emulation, and whole-pipeline simulation.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bpred/bpred.hh"
#include "common/rng.hh"
#include "emu/engine.hh"
#include "mem/cache.hh"
#include "reuse/reuse_buffer.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "vp/vpt.hh"

using namespace vpir;

namespace
{

void
BM_VptPredictUpdate(benchmark::State &state)
{
    Vpt vpt;
    Rng rng(1);
    uint64_t i = 0;
    for (auto _ : state) {
        Addr pc = 0x1000 + static_cast<Addr>((i % 512) * 4);
        uint64_t v = (i >> 9) & 3;
        VptPrediction p = vpt.predict(pc, v);
        vpt.update(pc, v, p);
        benchmark::DoNotOptimize(p.value);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VptPredictUpdate);

void
BM_RbProbeInsert(benchmark::State &state)
{
    ReuseBuffer rb;
    Instr add;
    add.op = Op::ADD;
    add.rd = 3;
    add.rs = 1;
    add.rt = 2;
    uint64_t i = 0;
    for (auto _ : state) {
        Addr pc = 0x1000 + static_cast<Addr>((i % 512) * 4);
        uint64_t a = (i >> 9) & 3;
        RbOperandQuery q[2];
        q[0].reg = 1;
        q[0].ready = true;
        q[0].value = a;
        q[1].reg = 2;
        q[1].ready = true;
        q[1].value = a + 1;
        RbProbeResult r = rb.probe(pc, add, q);
        if (!r.resultReused) {
            RbInsertInfo info;
            info.pc = pc;
            info.inst = add;
            info.srcReg[0] = 1;
            info.srcReg[1] = 2;
            info.srcVal[0] = a;
            info.srcVal[1] = a + 1;
            info.result = 2 * a + 1;
            rb.insert(info);
        }
        benchmark::DoNotOptimize(r.resultReused);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbProbeInsert);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c(CacheParams{64 * 1024, 2, 32, 1, 6});
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(static_cast<Addr>(rng.below(1 << 18))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredictTrain(benchmark::State &state)
{
    BranchPredUnit bp;
    Instr br;
    br.op = Op::BNE;
    br.rs = 1;
    br.rt = 2;
    br.target = 0x2000;
    uint64_t i = 0;
    for (auto _ : state) {
        Addr pc = 0x1000 + static_cast<Addr>((i % 64) * 4);
        BpredLookup l = bp.predict(pc, br);
        bp.update(pc, br, (i & 3) != 0, 0x2000, l.ghrUsed);
        benchmark::DoNotOptimize(l.predTaken);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredictTrain);

void
BM_FunctionalEmulation(benchmark::State &state)
{
    // Non-speculative functional throughput (the fast-forward path):
    // the FuncEngine over gcc, restarted whenever the program halts.
    WorkloadScale sc;
    sc.factor = 1.0;
    Workload w = makeWorkload("gcc", sc);
    const DecodedProgram code = predecode(w.program);
    auto st = std::make_unique<EmuState>();
    Emulator::loadProgram(w.program, *st);
    auto eng = std::make_unique<FuncEngine>(code, *st);
    uint64_t insts = 0;
    for (auto _ : state) {
        if (eng->halted()) {
            state.PauseTiming();
            st = std::make_unique<EmuState>();
            Emulator::loadProgram(w.program, *st);
            eng = std::make_unique<FuncEngine>(code, *st);
            state.ResumeTiming();
        }
        insts += eng->run(1024);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_FunctionalEmulation);

void
BM_PipelineSimulation(benchmark::State &state)
{
    // Whole-machine simulation throughput in committed
    // instructions/second, on the configuration selected by the
    // benchmark argument: 0 base, 1 VP, 2 IR.
    WorkloadScale sc;
    sc.factor = 1.0;
    Workload w = makeWorkload("perl", sc);
    CoreParams cfg;
    switch (state.range(0)) {
      case 1:
        cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                       BranchResolution::Speculative, 0);
        break;
      case 2:
        cfg = irConfig();
        break;
      default:
        cfg = baseConfig();
    }
    // VPIR_CHECK=1 etc. apply here too, so the checker's overhead is
    // directly measurable against the same benchmark without it.
    CoreParams run_cfg = withLimits(cfg, 50000);
    applyHardeningEnv(run_cfg);
    uint64_t insts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Core core(run_cfg, w.program);
        state.ResumeTiming();
        const CoreStats &st = core.run();
        insts += st.committedInsts;
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    // Simulated millions of committed instructions per host second —
    // the headline number the sweep engine also reports per cell.
    state.counters["simMIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSimulation)->Arg(0)->Arg(1)->Arg(2);

void
BM_CellSetup(benchmark::State &state)
{
    // Sweep-cell setup cost: everything that happens before cycle 0 —
    // workload assembly, image load, functional warmup, core
    // construction. Honors VPIR_WARM_CACHE, so running it with the
    // cache off and on measures the warm-start win directly
    // (tools/perf_smoke.sh does exactly that).
    WorkloadScale sc;
    sc.factor = 1.0;
    CoreParams cfg = withLimits(baseConfig(), 1);
    cfg.warmupInsts = 20000;
    uint64_t cells = 0;
    for (auto _ : state) {
        if (WarmStartCache::enabledFromEnv()) {
            WarmStartCache &cache = WarmStartCache::global();
            auto w = cache.workload("perl", sc);
            auto snap = cache.snapshot("perl", sc, cfg.warmupInsts);
            Simulator sim(cfg, std::move(w), std::move(snap));
            benchmark::DoNotOptimize(&sim.core());
        } else {
            Workload w = makeWorkload("perl", sc);
            Simulator sim(cfg, std::move(w.program));
            benchmark::DoNotOptimize(&sim.core());
        }
        ++cells;
    }
    state.SetItemsProcessed(static_cast<int64_t>(cells));
}
BENCHMARK(BM_CellSetup);

} // anonymous namespace

BENCHMARK_MAIN();
