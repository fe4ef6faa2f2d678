/**
 * @file
 * fast-forward: sampled simulation. The seven programs at an enlarged
 * scale, each measured by short detailed windows at several long
 * functional fast-forward offsets; the configurations at one offset
 * share that offset's warm snapshot through the WarmStartCache. The
 * functional emulator and snapshot machinery do most of the work and
 * the timing core little.
 */

#include "common.hh"
#include "sim/configs.hh"
#include "sim/warm_cache.hh"

namespace perfbench
{

using namespace vpir;
using sweep::SweepCell;

namespace
{

class FastForward : public Workload
{
  public:
    explicit FastForward(const Options &o)
        : opt(o), scale{o.tiny ? 1.0 : 8.0}
    {
        // Longest first: see order().
        const std::vector<uint64_t> offsets =
            o.tiny ? std::vector<uint64_t>{40000, 20000}
                   : std::vector<uint64_t>{6000000, 4000000, 2000000,
                                           1000000};
        const uint64_t window = o.tiny ? 2000 : 20000;
        const std::pair<const char *, CoreParams> configs[] = {
            {"base", baseConfig()},
            {"ir-early", irConfig(IrValidation::Early)},
            {"magic-me-sb-0",
             vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                      BranchResolution::Speculative, 0)},
            {"lvp-me-sb-0",
             vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                      BranchResolution::Speculative, 0)}};
        for (uint64_t off : offsets) {
            byOffset.emplace_back();
            for (const std::string &name : workloadNames()) {
                std::vector<SweepCell> group;
                for (const auto &[label, params] : configs) {
                    CoreParams p = withLimits(params, window);
                    p.warmupInsts = off;
                    applyHardeningEnv(p);
                    group.push_back(SweepCell{
                        name, std::string(label) + "@" + std::to_string(off),
                        p, scale});
                }
                byOffset.back().push_back(std::move(group));
            }
        }
    }

    SetupWork
    setup() override
    {
        WarmStartCache::global().clear();
        for (const std::string &name : workloadNames()) {
            auto t0 = std::chrono::steady_clock::now();
            WarmStartCache::global().workload(name, scale);
            buildSeconds.push_back(secondsSince(t0));
        }
        return {};
    }

    void
    prepareRound() override
    {
        // Every round builds its snapshots afresh: drop the previous
        // round's and re-prime only the assembled programs, which are
        // set-up work.
        WarmStartCache::global().clear();
        for (const std::string &name : workloadNames())
            WarmStartCache::global().workload(name, scale);
    }

    void
    round(Round &r) override
    {
        order(r.index);
        sweep::SweepEngine eng(1, "");
        r.cells.resize(cells.size());
        sweep::parallelFor(
            cells.size(),
            [&](size_t i) { runEngineCell(eng, cells[i], r.cells[i], r); },
            opt.jobs);
        attachEngineRecords(eng, cells, r);
    }

    void
    finishRound(Round &r) override
    {
        // A window must sample the program's middle: an offset past the
        // end restarts the program, and a window that halts measures
        // less than asked.
        for (size_t i = 0; i < cells.size(); ++i) {
            CellSample &s = r.cells[i];
            const SweepCell &c = cells[i];
            if (s.failed)
                continue;
            if (WarmStartCache::global()
                    .snapshot(c.workload, c.scale, c.params.warmupInsts)
                    ->halted) {
                s.failed = true;
                s.error = "fast-forward offset is past the program's end";
            } else if (s.stats.committedInsts != c.params.maxInsts) {
                s.failed = true;
                s.error = "detailed window ended early: committed " +
                          std::to_string(s.stats.committedInsts);
            }
        }
    }

    void
    layerMetrics(const std::vector<const Round *> &traced,
                 Metrics &out) override
    {
        engineCellMetrics(traced, out);
        CoreStats sum;
        for (const Round *r : traced) {
            for (const CellSample &c : r->cells)
                addStats(sum, c.stats);
        }
        simulatedCountMetrics(sum, out);
        out["workload.build_ms"] = {1e3 * median(buildSeconds), "ms"};
        out["sweep.stats_json_encode_us"] = {
            1e6 * meanSpanSeconds(traced, "sweep", "stats_json_encode"),
            "us"};
    }

  private:
    /**
     * This round's cell order. Longest fast-forward first, so the
     * critical path (the longest snapshot builds and the windows
     * waiting on them) starts at once whatever the order. Within an
     * offset, cells go round-robin over snapshots, so the pool builds
     * different snapshots side by side instead of queueing on one.
     * The seed and the round order the snapshots within an offset and
     * the configs sharing a snapshot.
     */
    void
    order(size_t round)
    {
        const uint64_t seed = Rng::split(opt.seed, round);
        cells.clear();
        for (size_t o = 0; o < byOffset.size(); ++o) {
            std::vector<std::vector<SweepCell>> groups = byOffset[o];
            shuffle(groups, Rng::split(seed, o));
            for (size_t g = 0; g < groups.size(); ++g)
                shuffle(groups[g], Rng::split(seed, (o + 1) << 16 | g));
            for (size_t k = 0; k < groups[0].size(); ++k) {
                for (const std::vector<SweepCell> &group : groups)
                    cells.push_back(group[k]);
            }
        }
    }

    Options opt;
    WorkloadScale scale;
    /** Per offset (longest first), per program: the configs sharing
     *  one warm snapshot. */
    std::vector<std::vector<std::vector<SweepCell>>> byOffset;
    std::vector<SweepCell> cells; //!< this round's order
    std::vector<double> buildSeconds;
};

} // namespace

std::unique_ptr<Workload>
makeFastForward(const Options &opt)
{
    return std::make_unique<FastForward>(opt);
}

} // namespace perfbench
