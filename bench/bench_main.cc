/**
 * @file
 * The experiment runner, built once per manifest entry (bench_table3,
 * bench_fig4, ...) with BENCH_EXPERIMENT naming the entry. It prints
 * the banner, prefetches every cell on the process-wide sweep engine
 * (so they fan out over VPIR_JOBS threads) before reading any, runs
 * the redundancy limit study if the entry needs it, and prints the
 * entry's tables. Stdout is byte-identical for any job count; the
 * timing summary goes to stderr, and the exit status is 1 when any
 * cell failed.
 *
 * Environment knobs:
 *   VPIR_BENCH_INSTS    committed-instruction budget per run
 *                       (default 400000)
 *   VPIR_BENCH_SCALE    workload scale factor (default 1.0)
 *   VPIR_JOBS           worker threads (default hardware concurrency)
 *   VPIR_RESULT_CACHE   on-disk result cache directory (off if unset)
 *   VPIR_TIMING_JSON    timing report path (default
 *                       bench_timing.bench_<name>.json, so a full
 *                       bench run keeps every harness's records)
 *   VPIR_TIMING_VERBOSE per-cell lines in the stderr summary
 *   VPIR_CHECK          =1: lockstep-verify every retired instruction
 *   VPIR_WATCHDOG_CYCLES commit-progress watchdog limit
 *   VPIR_FAULT_*        deterministic fault injection (see configs.hh)
 *   VPIR_ISOLATE        =1: run each sweep cell in a forked child so
 *                       a crash/hang is contained as a CellFailure
 *   VPIR_CELL_TIMEOUT_MS per-cell wall-clock deadline (SIGKILL when
 *                       isolated, cooperative panic in-process)
 *   VPIR_CELL_RLIMIT_MB address-space rlimit per isolated cell
 *   VPIR_WARM_CACHE     =0: disable the warm-start cache (per-cell
 *                       assembly + warmup; byte-identical results)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/experiments.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

void
banner(const Experiment &e)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s — %s\n", e.title, e.what);
    std::printf("(paper: Sodani & Sohi, \"Understanding the "
                "Differences Between Value\n Prediction and "
                "Instruction Reuse\", MICRO-31, 1998)\n");
    std::printf("================================================="
                "=====================\n");
}

/**
 * The redundancy limit study (Figures 8-10) over every workload on
 * VPIR_JOBS threads, in workloadNames() order; an aggregate timing
 * line goes to stderr.
 */
std::vector<RedundancyStats>
analyzeAllWorkloads(uint64_t limit, WorkloadScale scale)
{
    const auto &names = workloadNames();
    std::vector<RedundancyStats> out(names.size());
    auto t0 = std::chrono::steady_clock::now();
    sweep::parallelFor(names.size(), [&](size_t i) {
        Workload w = makeWorkload(names[i], scale);
        RedundancyParams params;
        params.maxInsts = limit;
        out[i] = analyzeRedundancy(w.program, params);
    });
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    uint64_t insts = 0;
    for (const RedundancyStats &st : out)
        insts += st.totalDynamic;
    std::fprintf(stderr,
                 "[sweep] %zu analysis cells, jobs=%u: wall %.2f s, "
                 "%.1f M insts, %.1f MIPS\n",
                 names.size(), sweep::defaultJobs(), wall,
                 static_cast<double>(insts) / 1e6,
                 wall > 0.0 ? static_cast<double>(insts) / wall / 1e6 : 0.0);
    return out;
}

} // anonymous namespace

int
main()
{
    const Experiment &e = experiment(BENCH_EXPERIMENT);
    banner(e);

    Results r;
    r.instLimit = benchInstLimit();
    WorkloadScale scale = benchScale();
    auto &eng = sweep::SweepEngine::global();
    std::vector<sweep::SweepCell> cells = sweepCells(e, r.instLimit, scale);
    for (sweep::SweepCell &c : cells) {
        applyHardeningEnv(c.params);
        eng.prefetch(c);
    }
    for (const sweep::SweepCell &c : cells)
        r.cells[{c.workload, c.label}] = &eng.get(c);
    if (e.limitStudy)
        r.redundancy = analyzeAllWorkloads(r.instLimit, scale);
    e.print(r);

    if (eng.cellsComputed() + eng.cellsFromDiskCache() > 0) {
        eng.printSummary(stderr);
        const char *path = std::getenv("VPIR_TIMING_JSON");
        std::string def = std::string("bench_timing.bench_") + e.name +
                          ".json";
        eng.writeTimingJson(path && *path ? path : def);
    }
    return eng.failures().empty() ? 0 : 1;
}
