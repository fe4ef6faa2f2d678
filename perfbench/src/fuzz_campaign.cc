/**
 * @file
 * fuzz-campaign: a thousand short programs generated from the seed,
 * each run by the differential driver (timing core with the lockstep
 * checker, cycle audits and watchdog armed, then a functional replay
 * of the end state) under its fuzzParamsForSeed configuration. Cells
 * are short, so per-cell set-up dominates. The programs are generated
 * and assembled during set-up; each round replays the same campaign.
 */

#include "check/fault.hh"
#include "common.hh"
#include "fuzz/differential.hh"
#include "fuzz/generator.hh"

namespace perfbench
{

using namespace vpir;

namespace
{

class FuzzCampaign : public Workload
{
  public:
    explicit FuzzCampaign(const Options &o)
        : opt(o), count(o.tiny ? 40 : 1000)
    {}

    SetupWork
    setup() override
    {
        // Same per-cell derivation as fuzz::runFuzzCampaign: split
        // seeds, and the environment's fault cocktail merged into
        // every cell (a planted VPIR_FAULT_* knob fuzzes the campaign).
        const FaultPlan envFaults = faultPlanFromEnv(FaultPlan{});
        seeds.assign(count, 0);
        programs.assign(count, Program{});
        params.assign(count, CoreParams{});
        genSeconds.assign(count, 0.0);
        for (size_t i = 0; i < count; ++i) {
            seeds[i] = Rng::split(opt.seed, i);
            auto t0 = std::chrono::steady_clock::now();
            programs[i] = fuzz::generateProgram(seeds[i]);
            genSeconds[i] = secondsSince(t0);
            CoreParams p = fuzz::fuzzParamsForSeed(seeds[i]);
            p.faults = faultPlanFromEnv(p.faults);
            if (envFaults.any())
                p.faults.seed = Rng::split(p.faults.seed, i);
            if (p.faults.anyRb())
                p.irOracleCheck = false;
            params[i] = p;
        }
        return {};
    }

    void
    round(Round &r) override
    {
        r.cells.resize(count);
        sweep::parallelFor(
            count,
            [&](size_t i) {
                CellSample &s = r.cells[i];
                s.key = seeds[i];
                s.label = fuzz::fuzzWorkloadName(seeds[i]);
                fuzz::DiffOutcome out;
                timeCell(s, r.start, [&] {
                    SpanScope span(s, "fuzz", "differential", r.traced,
                                   r.start);
                    out = fuzz::runDifferential(programs[i], params[i]);
                });
                s.stats = out.stats;
                s.hasStats = true;
                s.detailedInsts = out.stats.committedInsts;
                s.digest = statsDigest(out.stats);
                if (out.diverged) {
                    s.failed = true;
                    s.error = "fuzz divergence [" + out.kind + "] " +
                              out.detail;
                } else if (out.stats.checkedInsts !=
                           out.stats.committedInsts) {
                    s.failed = true;
                    s.error = "lockstep checker covered " +
                              std::to_string(out.stats.checkedInsts) +
                              " of " +
                              std::to_string(out.stats.committedInsts) +
                              " retirements";
                }
            },
            opt.jobs);
    }

    void
    layerMetrics(const std::vector<const Round *> &traced,
                 Metrics &out) override
    {
        CoreStats sum;
        uint64_t cells = 0;
        for (const Round *r : traced) {
            for (const CellSample &c : r->cells) {
                addStats(sum, c.stats);
                ++cells;
            }
        }
        simulatedCountMetrics(sum, out);
        out["fuzz.generate_ms"] = {1e3 * median(genSeconds), "ms"};
        out["fuzz.diff_ms"] = {
            1e3 * meanSpanSeconds(traced, "fuzz", "differential"), "ms"};
        out["fuzz.program_insts"] = {
            ratio(static_cast<double>(sum.committedInsts),
                  static_cast<double>(cells)),
            "inst"};
    }

  private:
    Options opt;
    size_t count;
    std::vector<uint64_t> seeds;
    std::vector<Program> programs;
    std::vector<CoreParams> params;
    std::vector<double> genSeconds;
};

} // namespace

std::unique_ptr<Workload>
makeFuzzCampaign(const Options &opt)
{
    return std::make_unique<FuzzCampaign>(opt);
}

} // namespace perfbench
