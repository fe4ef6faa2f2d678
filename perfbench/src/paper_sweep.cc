/**
 * @file
 * paper-sweep: every distinct (program, configuration) cell behind the
 * Table 2-6, Figure 3-7, ablation and hybrid harnesses, plus the
 * Figure 8-10 redundancy limit study, at the harnesses' default size
 * (400K committed instructions, scale 1.0, no warmup). Each round
 * writes a fresh, empty result store. The timing core does almost all
 * the work; the paper's tables give the accuracy figure.
 */

#include <cmath>
#include <filesystem>
#include <set>

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"
#include "common.hh"
#include "redundancy/redundancy.hh"
#include "sim/configs.hh"
#include "sim/warm_cache.hh"

namespace perfbench
{

using namespace vpir;
using sweep::SweepCell;

namespace
{

std::string
vpLabel(VpScheme scheme, ReexecPolicy reexec, BranchResolution br,
        unsigned lat)
{
    return std::string(scheme == VpScheme::Magic ? "magic" : "lvp") +
           (reexec == ReexecPolicy::Multiple ? "-me" : "-nme") +
           (br == BranchResolution::Speculative ? "-sb-" : "-nsb-") +
           std::to_string(lat);
}

} // namespace

std::vector<SweepCell>
paperSweepCells(uint64_t budget)
{
    std::vector<SweepCell> cells;
    std::set<uint64_t> seen;
    auto add = [&](const std::string &program, const std::string &label,
                   const CoreParams &params) {
        CoreParams p = withLimits(params, budget);
        applyHardeningEnv(p);
        SweepCell c{program, label, p, WorkloadScale{}};
        if (seen.insert(sweep::cellHash(c)).second)
            cells.push_back(c);
    };
    for (const std::string &name : workloadNames()) {
        add(name, "base", baseConfig());
        add(name, "ir-early", irConfig(IrValidation::Early));
        add(name, "ir-late", irConfig(IrValidation::Late));
        for (VpScheme scheme : {VpScheme::Magic, VpScheme::Lvp}) {
            for (unsigned lat : {0u, 1u}) {
                for (ReexecPolicy re :
                     {ReexecPolicy::Multiple, ReexecPolicy::Single}) {
                    for (BranchResolution br :
                         {BranchResolution::Speculative,
                          BranchResolution::NonSpeculative}) {
                        add(name, vpLabel(scheme, re, br, lat),
                            vpConfig(scheme, re, br, lat));
                    }
                }
            }
        }
        CoreParams full = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                   BranchResolution::Speculative, 0);
        CoreParams resOnly = full;
        resOnly.vpPredictAddresses = false;
        CoreParams addrOnly = full;
        addrOnly.vpPredictResults = false;
        add(name, "vp-res", resOnly);
        add(name, "vp-addr", addrOnly);
        add(name, "hybrid", hybridConfig());
        // Ablation capacity sweep (bench_ablation.cc section 2); the
        // 4K-RB / 16K-VPT points coincide with cells above.
        if (name == "m88ksim" || name == "perl") {
            for (unsigned rb : {512u, 2048u, 4096u, 8192u}) {
                CoreParams ir = irConfig();
                ir.rb.entries = rb;
                CoreParams vp = full;
                vp.vpt.entries = rb * 4;
                add(name, "ir-" + std::to_string(rb), ir);
                add(name, "vp-" + std::to_string(rb), vp);
            }
        }
    }
    return cells;
}

namespace
{

double
pctOf(uint64_t n, uint64_t d)
{
    return d ? 100.0 * static_cast<double>(n) / static_cast<double>(d)
             : 0.0;
}

/** Table 4's spurious-squash increase (bench_table4.cc). */
double
increasePct(const CoreStats &vp)
{
    return pctOf(vp.spuriousSquashes,
                 vp.branchSquashes - vp.spuriousSquashes);
}

/**
 * Mean absolute error, in percentage points, of the simulated Table
 * 2-6 rates against bench/paper_ref.hh: 21 rates for each of the seven
 * programs (README.md lists them). @p stats maps "program/label" to a
 * cell's stats; returns -1 when a needed cell is missing.
 */
double
paperMaePp(const std::map<std::string, const CoreStats *> &stats)
{
    double sum = 0.0;
    size_t n = 0;
    auto cmp = [&](double simulated, double paper) {
        sum += std::fabs(simulated - paper);
        ++n;
    };
    for (const std::string &name : workloadNames()) {
        auto get = [&](const std::string &label) -> const CoreStats * {
            auto it = stats.find(name + "/" + label);
            return it == stats.end() ? nullptr : it->second;
        };
        const CoreStats *base = get("base"), *ir = get("ir-early"),
                        *m = get("magic-me-sb-0"), *l = get("lvp-me-sb-0"),
                        *mn = get("magic-nme-sb-0"),
                        *ln = get("lvp-nme-sb-0"),
                        *m1 = get("magic-me-sb-1");
        if (!base || !ir || !m || !l || !mn || !ln || !m1)
            return -1.0;
        const paper::Table2Row &t2 = paper::table2.at(name);
        const paper::Table3Row &t3 = paper::table3.at(name);
        const paper::Table4Row &t4 = paper::table4.at(name);
        const paper::Table5Row &t5 = paper::table5.at(name);
        const paper::Table6Row &t6 = paper::table6.at(name);

        cmp(bench::brPredRate(*base), t2.brPredRate);
        cmp(bench::retPredRate(*base), t2.retPredRate);

        cmp(pctOf(ir->reusedResults, ir->committedInsts), t3.irResult);
        cmp(pctOf(ir->reusedAddrs, ir->committedMemOps), t3.irAddr);
        cmp(pctOf(m->vpResultCorrect, m->committedInsts), t3.magicPred);
        cmp(pctOf(m->vpResultWrong, m->committedInsts), t3.magicMispred);
        cmp(pctOf(m->vpAddrCorrect, m->committedMemOps), t3.magicAddrPred);
        cmp(pctOf(m->vpAddrWrong, m->committedMemOps),
            t3.magicAddrMispred);
        cmp(pctOf(l->vpResultCorrect, l->committedInsts), t3.lvpPred);
        cmp(pctOf(l->vpResultWrong, l->committedInsts), t3.lvpMispred);
        cmp(pctOf(l->vpAddrCorrect, l->committedMemOps), t3.lvpAddrPred);
        cmp(pctOf(l->vpAddrWrong, l->committedMemOps), t3.lvpAddrMispred);

        cmp(increasePct(*m), t4.magicMeSb);
        cmp(increasePct(*mn), t4.magicNmeSb);
        cmp(increasePct(*l), t4.lvpMeSb);
        cmp(increasePct(*ln), t4.lvpNmeSb);

        cmp(pctOf(ir->squashedExecuted, ir->executedInsts),
            t5.execSquashedPct);
        cmp(pctOf(ir->squashedRecovered, ir->squashedExecuted),
            t5.squashRecoveredPct);

        uint64_t hist = m1->execCountHist[0] + m1->execCountHist[1] +
                        m1->execCountHist[2] + m1->execCountHist[3];
        cmp(pctOf(m1->execCountHist[0], hist), t6.once);
        cmp(pctOf(m1->execCountHist[1], hist), t6.twice);
        cmp(pctOf(m1->execCountHist[2], hist), t6.thrice);
    }
    return sum / static_cast<double>(n);
}

uint64_t
redundancyDigest(const RedundancyStats &st)
{
    std::string s;
    for (uint64_t v :
         {st.totalDynamic, st.resultProducing, st.unique, st.repeated,
          st.derivable, st.unaccounted, st.prodReused, st.prodFar,
          st.prodNear, st.inputsDifferent, st.reusable})
        s += std::to_string(v) + ",";
    return fnv1a(s);
}

class PaperSweep : public Workload
{
  public:
    explicit PaperSweep(const Options &o)
        : opt(o), budget(o.tiny ? 5000 : 400000),
          cells(paperSweepCells(budget)), store(o.workdir + "/paper-store")
    {
        // Engine cells first, then one limit-study item per program.
        for (size_t i = 0; i < cells.size() + workloadNames().size(); ++i)
            order.push_back(i);
    }

    SetupWork
    setup() override
    {
        WarmStartCache &cache = WarmStartCache::global();
        cache.clear();
        for (const std::string &name : workloadNames()) {
            auto t0 = std::chrono::steady_clock::now();
            cache.workload(name, WorkloadScale{});
            buildSeconds.push_back(secondsSince(t0));
            cache.snapshot(name, WorkloadScale{}, 0);
        }
        return {};
    }

    void
    round(Round &r) override
    {
        std::filesystem::remove_all(store);
        sweep::SweepEngine eng(1, store);
        const size_t nCells = cells.size();
        // The seed and the round fix the order work reaches the pool.
        shuffle(order, Rng::split(opt.seed, r.index));
        r.cells.resize(order.size());
        sweep::parallelFor(
            order.size(),
            [&](size_t i) {
                size_t item = order[i];
                CellSample &s = r.cells[item];
                if (item < nCells) {
                    runEngineCell(eng, cells[item], s, r);
                    return;
                }
                const std::string &name = workloadNames()[item - nCells];
                s.key = fnv1a("redundancy/" + name);
                s.label = name + "/redundancy";
                RedundancyStats st;
                timeCell(s, r.start, [&] {
                    SpanScope span(s, "redundancy", "analyze", r.traced,
                                   r.start);
                    RedundancyParams params;
                    params.maxInsts = budget;
                    st = analyzeRedundancy(
                        WarmStartCache::global()
                            .workload(name, WorkloadScale{})
                            ->program,
                        params);
                });
                s.functionalInsts = st.totalDynamic;
                s.digest = redundancyDigest(st);
            },
            opt.jobs);
        attachEngineRecords(eng, cells, r);
        if (mae < 0.0) {
            std::map<std::string, const CoreStats *> byLabel;
            for (size_t i = 0; i < nCells; ++i)
                byLabel[cells[i].workload + "/" + cells[i].label] =
                    &r.cells[i].stats;
            mae = paperMaePp(byLabel);
        }
    }

    void
    finishRound(Round &r) override
    {
        if (r.traced) {
            uint64_t bytes = 0, files = 0;
            for (const auto &e :
                 std::filesystem::directory_iterator(store)) {
                bytes += e.file_size();
                ++files;
            }
            storeBytesPerCell = ratio(static_cast<double>(bytes),
                                      static_cast<double>(files));
        }
        std::filesystem::remove_all(store);
    }

    void
    layerMetrics(const std::vector<const Round *> &traced,
                 Metrics &out) override
    {
        engineCellMetrics(traced, out);
        CoreStats sum;
        double redSeconds = 0.0;
        uint64_t redInsts = 0;
        for (const Round *r : traced) {
            for (const CellSample &c : r->cells) {
                if (c.hasStats)
                    addStats(sum, c.stats);
                else {
                    redSeconds += c.latency();
                    redInsts += c.functionalInsts;
                }
            }
        }
        simulatedCountMetrics(sum, out);
        out["redundancy.mips"] = {
            ratio(static_cast<double>(redInsts), redSeconds) / 1e6,
            "MIPS"};
        out["workload.build_ms"] = {1e3 * median(buildSeconds), "ms"};
        out["paper_mae_pp"] = {mae, "pp"};
        out["sweep.stats_json_encode_us"] = {
            1e6 * meanSpanSeconds(traced, "sweep", "stats_json_encode"),
            "us"};
        out["sweep.store_bytes_per_cell"] = {storeBytesPerCell, "bytes"};
    }

    std::vector<std::string>
    finalChecks() override
    {
        if (mae < 0.0)
            return {"paper_mae_pp: a Table 2-6 cell is missing"};
        return {};
    }

  private:
    Options opt;
    uint64_t budget;
    std::vector<SweepCell> cells;
    std::string store;
    std::vector<size_t> order;
    std::vector<double> buildSeconds;
    double mae = -1.0;
    double storeBytesPerCell = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makePaperSweep(const Options &opt)
{
    return std::make_unique<PaperSweep>(opt);
}

} // namespace perfbench
