/**
 * @file
 * The experiment manifest: every table and figure's cells and the
 * code that prints it. Cell labels follow one vocabulary across
 * experiments ("base", "ir-early", "magic-me-sb-0", ...), the same one
 * perfbench's paper-sweep uses.
 */

#include "bench/experiments.hh"

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"
#include "common/logging.hh"
#include "isa/decode.hh"
#include "sim/configs.hh"

namespace vpir
{
namespace bench
{

const CoreStats &
Results::at(const std::string &program, const std::string &label) const
{
    auto it = cells.find({program, label});
    if (it == cells.end())
        panic("experiment has no cell '" + label + "' on " + program);
    return *it->second;
}

namespace
{

// ---------------------------------------------------------------- cells

/** The {ME,NME} x {SB,NSB} VP variants, in the figures' column order. */
struct VpVariant
{
    ReexecPolicy reexec;
    BranchResolution branch;
};

constexpr VpVariant VP_VARIANTS[] = {
    {ReexecPolicy::Multiple, BranchResolution::Speculative},
    {ReexecPolicy::Single, BranchResolution::Speculative},
    {ReexecPolicy::Multiple, BranchResolution::NonSpeculative},
    {ReexecPolicy::Single, BranchResolution::NonSpeculative},
};

/** Ablation section 2: RB entries (the VPT gets four times as many). */
constexpr unsigned RB_ENTRIES[] = {512, 2048, 4096, 8192};

/** "magic-me-sb-0"-style label of a VP configuration. */
std::string
vpLabel(VpScheme scheme, VpVariant v, unsigned lat)
{
    return std::string(scheme == VpScheme::Magic ? "magic" : "lvp") +
           (v.reexec == ReexecPolicy::Multiple ? "-me" : "-nme") +
           (v.branch == BranchResolution::Speculative ? "-sb-" : "-nsb-") +
           std::to_string(lat);
}

CellSpec
onAll(std::string label, CoreParams params)
{
    return {workloadNames(), std::move(label), std::move(params)};
}

CellSpec
base()
{
    return onAll("base", baseConfig());
}

CellSpec
ir(IrValidation validation = IrValidation::Early)
{
    return onAll(validation == IrValidation::Early ? "ir-early" : "ir-late",
                 irConfig(validation));
}

CellSpec
vp(VpScheme scheme, VpVariant v, unsigned lat)
{
    return onAll(vpLabel(scheme, v, lat),
                 vpConfig(scheme, v.reexec, v.branch, lat));
}

/** VP_Magic ME-SB at 0-cycle verification: the headline VP machine. */
CellSpec
magic()
{
    return vp(VpScheme::Magic, VP_VARIANTS[0], 0);
}

/** All four VP variants of @p scheme at latency @p lat. */
std::vector<CellSpec>
vpVariants(VpScheme scheme, unsigned lat)
{
    std::vector<CellSpec> out;
    for (VpVariant v : VP_VARIANTS)
        out.push_back(vp(scheme, v, lat));
    return out;
}

void
append(std::vector<CellSpec> &out, CellSpec c)
{
    out.push_back(std::move(c));
}

void
append(std::vector<CellSpec> &out, std::vector<CellSpec> cs)
{
    for (CellSpec &c : cs)
        out.push_back(std::move(c));
}

template <typename... Parts>
std::vector<CellSpec>
cells(Parts... parts)
{
    std::vector<CellSpec> out;
    (append(out, std::move(parts)), ...);
    return out;
}

std::vector<CellSpec>
ablationCells()
{
    CoreParams resOnly = magic().params;
    resOnly.vpPredictAddresses = false;
    CoreParams addrOnly = magic().params;
    addrOnly.vpPredictResults = false;
    std::vector<CellSpec> out = cells(base(), magic(),
                                      onAll("vp-res", resOnly),
                                      onAll("vp-addr", addrOnly));
    for (unsigned rb : RB_ENTRIES) {
        CoreParams irp = irConfig();
        irp.rb.entries = rb;
        CoreParams vpp = magic().params;
        vpp.vpt.entries = rb * 4;
        std::string tag = std::to_string(rb);
        out.push_back({{"m88ksim", "perl"}, "ir-" + tag, irp});
        out.push_back({{"m88ksim", "perl"}, "vp-" + tag, vpp});
    }
    return out;
}

// ------------------------------------------------------------- printing

double
pctOf(uint64_t n, uint64_t d)
{
    return pct(static_cast<double>(n), static_cast<double>(d));
}

double
overInsts(uint64_t n, const CoreStats &st)
{
    return pctOf(n, st.committedInsts);
}

double
overMem(uint64_t n, const CoreStats &st)
{
    return pctOf(n, st.committedMemOps);
}

/** Table 4: % increase of squashes over the non-spurious squashes. */
double
increasePct(const CoreStats &vp)
{
    return pctOf(vp.spuriousSquashes,
                 vp.branchSquashes - vp.spuriousSquashes);
}

/** "opLat/issueLat" of @p op. */
std::string
latency(Op op)
{
    return std::to_string(decodeInfo(op).opLat) + "/" +
           std::to_string(decodeInfo(op).issueLat);
}

void
printTable1(const Results &)
{
    CoreParams p = baseConfig();
    TextTable t({"parameter", "this simulator", "paper"});
    t.addRow({"fetch width", std::to_string(p.fetchWidth),
              "4 insts/cycle, 1 taken branch, no line crossing"});
    t.addRow({"icache",
              std::to_string(p.icache.sizeBytes / 1024) + "KB " +
                  std::to_string(p.icache.ways) + "-way " +
                  std::to_string(p.icache.lineBytes) + "B line, " +
                  std::to_string(p.icache.missLatency) + "-cycle miss",
              "64KB 2-way 32B, 6-cycle miss"});
    t.addRow({"branch predictor",
              "gshare " + std::to_string(p.bpred.historyBits) +
                  "-bit history, " +
                  std::to_string(p.bpred.tableEntries / 1024) +
                  "K counters",
              "gshare, 10-bit history, 16K counters"});
    t.addRow({"issue",
              "OoO " + std::to_string(p.issueWidth) + " ops/cycle, " +
                  std::to_string(p.robEntries) + "-entry ROB, " +
                  std::to_string(p.lsqEntries) + "-entry LSQ, " +
                  std::to_string(p.maxUnresolvedBranches) +
                  " unresolved branches",
              "OoO 4/cycle, 32 ROB, 32 LSQ, 8 branches"});
    t.addRow({"int ALUs", std::to_string(fuPoolSize(FuType::IntAlu)),
              "8"});
    t.addRow({"load/store units",
              std::to_string(fuPoolSize(FuType::LoadStore)), "2"});
    t.addRow({"FP adders", std::to_string(fuPoolSize(FuType::FpAdder)),
              "4"});
    t.addRow({"int mult/div",
              std::to_string(fuPoolSize(FuType::IntMulDiv)), "1"});
    t.addRow({"FP mult/div",
              std::to_string(fuPoolSize(FuType::FpMulDiv)), "1"});
    t.addRow({"int alu latency", latency(Op::ADD), "1/1"});
    t.addRow({"int mult latency", latency(Op::MULT), "3/1"});
    t.addRow({"int div latency", latency(Op::DIV), "20/19"});
    t.addRow({"fp add latency", latency(Op::ADD_D), "2/1"});
    t.addRow({"fp mult latency", latency(Op::MUL_D), "4/1"});
    t.addRow({"fp div latency", latency(Op::DIV_D), "12/12"});
    t.addRow({"fp sqrt latency", latency(Op::SQRT_D), "24/24"});
    t.addRow({"dcache",
              std::to_string(p.dcache.sizeBytes / 1024) + "KB " +
                  std::to_string(p.dcache.ways) + "-way " +
                  std::to_string(p.dcache.lineBytes) + "B line, " +
                  std::to_string(p.dcache.missLatency) +
                  "-cycle miss, " + std::to_string(p.dcachePorts) +
                  " ports",
              "64KB 2-way 32B, 6-cycle miss, dual ported"});
    t.addRow({"VPT (VP runs)", "16K entries, 4-way, LRU",
              "16K entries, 4-way, LRU"});
    t.addRow({"RB (IR runs)", "4K entries, 4-way, LRU",
              "4K entries, 4-way, LRU"});
    std::printf("%s\n", t.render().c_str());
}

void
printTable2(const Results &r)
{
    TextTable t({"bench", "insts(K)", "br pred %", "(paper)",
                 "ret pred %", "(paper)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &st = r.at(name, "base");
        const paper::Table2Row &ref = paper::table2.at(name);
        t.addRow({name,
                  TextTable::num(st.committedInsts / 1000.0, 0),
                  TextTable::num(brPredRate(st), 1),
                  TextTable::num(ref.brPredRate, 1),
                  TextTable::num(retPredRate(st), 1),
                  TextTable::num(ref.retPredRate, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("note: paper instruction counts are 354-508M after "
                "fast-forward; this\nreproduction runs scaled-down "
                "synthetic workloads (VPIR_BENCH_INSTS=%llu).\n",
                static_cast<unsigned long long>(r.instLimit));
}

void
printTable3(const Results &r)
{
    TextTable t({"bench", "ir-res", "(p)", "ir-adr", "(p)", "mag-res",
                 "(p)", "mag-mis", "(p)", "mag-adr", "(p)", "lvp-res",
                 "(p)", "lvp-mis", "(p)"});
    TextTable t2({"bench", "lvp-adr", "(p)", "lvp-adr-mis", "(p)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &ir = r.at(name, "ir-early");
        const CoreStats &m = r.at(name, "magic-me-sb-0");
        const CoreStats &l = r.at(name, "lvp-me-sb-0");
        const paper::Table3Row &ref = paper::table3.at(name);
        t.addRow({name,
                  TextTable::num(overInsts(ir.reusedResults, ir), 1),
                  TextTable::num(ref.irResult, 1),
                  TextTable::num(overMem(ir.reusedAddrs, ir), 1),
                  TextTable::num(ref.irAddr, 1),
                  TextTable::num(overInsts(m.vpResultCorrect, m), 1),
                  TextTable::num(ref.magicPred, 1),
                  TextTable::num(overInsts(m.vpResultWrong, m), 1),
                  TextTable::num(ref.magicMispred, 1),
                  TextTable::num(overMem(m.vpAddrCorrect, m), 1),
                  TextTable::num(ref.magicAddrPred, 1),
                  TextTable::num(overInsts(l.vpResultCorrect, l), 1),
                  TextTable::num(ref.lvpPred, 1),
                  TextTable::num(overInsts(l.vpResultWrong, l), 1),
                  TextTable::num(ref.lvpMispred, 1)});
        t2.addRow({name, TextTable::num(overMem(l.vpAddrCorrect, l), 1),
                   TextTable::num(ref.lvpAddrPred, 1),
                   TextTable::num(overMem(l.vpAddrWrong, l), 1),
                   TextTable::num(ref.lvpAddrMispred, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("address columns for VP_LVP (paper: pred 18.1-41.7%%, "
                "mispred 0.1-4.0%%):\n");
    std::printf("%s\n", t2.render().c_str());
    std::printf("shape checks: VP_Magic result rate >= IR result rate "
                "(all but compress\nin the paper); compress address "
                "reuse is the outlier high value; VP_LVP\nrates sit "
                "below VP_Magic with higher mispredictions.\n");
}

void
printTable4(const Results &r)
{
    TextTable t({"bench", "Magic ME-SB", "(p)", "Magic NME-SB", "(p)",
                 "LVP ME-SB", "(p)", "LVP NME-SB", "(p)"});
    for (const auto &name : workloadNames()) {
        const paper::Table4Row &ref = paper::table4.at(name);
        auto inc = [&](const char *label) {
            return TextTable::num(increasePct(r.at(name, label)), 1);
        };
        t.addRow({name, inc("magic-me-sb-0"),
                  TextTable::num(ref.magicMeSb, 1), inc("magic-nme-sb-0"),
                  TextTable::num(ref.magicNmeSb, 1), inc("lvp-me-sb-0"),
                  TextTable::num(ref.lvpMeSb, 1), inc("lvp-nme-sb-0"),
                  TextTable::num(ref.lvpNmeSb, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape checks: VP_LVP causes a much larger increase "
                "than VP_Magic (its\nvalue misprediction rate is "
                "higher); NME trims the ME numbers slightly.\n");
}

void
printTable5(const Results &r)
{
    TextTable t({"bench", "insts exec(K)", "squashed %", "(p)",
                 "recovered %", "(p)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &ir = r.at(name, "ir-early");
        const paper::Table5Row &ref = paper::table5.at(name);
        t.addRow({name, TextTable::num(ir.executedInsts / 1000.0, 0),
                  TextTable::num(
                      pctOf(ir.squashedExecuted, ir.executedInsts), 1),
                  TextTable::num(ref.execSquashedPct, 1),
                  TextTable::num(
                      pctOf(ir.squashedRecovered, ir.squashedExecuted), 1),
                  TextTable::num(ref.squashRecoveredPct, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape check: a significant share of squashed "
                "executed work (paper: ~28-54%%)\nis recovered "
                "through the reuse buffer.\n");
}

void
printTable6(const Results &r)
{
    TextTable t({"bench", "1x", "(p)", "2x", "(p)", "3x", "(p)",
                 ">=4x"});
    for (const auto &name : workloadNames()) {
        const CoreStats &st = r.at(name, "magic-me-sb-1");
        uint64_t total = st.execCountHist[0] + st.execCountHist[1] +
                         st.execCountHist[2] + st.execCountHist[3];
        auto share = [&](int i) {
            return TextTable::num(pctOf(st.execCountHist[i], total), 1);
        };
        const paper::Table6Row &ref = paper::table6.at(name);
        t.addRow({name, share(0), TextTable::num(ref.once, 1),
                  share(1), TextTable::num(ref.twice, 1), share(2),
                  TextTable::num(ref.thrice, 1), share(3)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape check: very few instructions execute more "
                "than twice, which is\nwhy restricting re-execution "
                "(NME) barely changes performance.\n");
}

void
printFig3(const Results &r)
{
    TextTable t({"bench", "early speedup %", "late speedup %",
                 "late/early"});
    std::vector<double> early_s, late_s;
    auto addRow = [&](const std::string &name, double es, double ls) {
        t.addRow({name, TextTable::num(100.0 * (es - 1.0), 2),
                  TextTable::num(100.0 * (ls - 1.0), 2),
                  TextTable::num(
                      es > 1.0 ? (ls - 1.0) / (es - 1.0) : 0.0, 2)});
    };
    for (const auto &name : workloadNames()) {
        const CoreStats &base = r.at(name, "base");
        early_s.push_back(speedup(r.at(name, "ir-early"), base));
        late_s.push_back(speedup(r.at(name, "ir-late"), base));
        addRow(name, early_s.back(), late_s.back());
    }
    addRow("HM", harmonicMean(early_s), harmonicMean(late_s));
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's claim: \"more than half of the performance "
                "improvement is lost\nif the validation is deferred "
                "to the execution stage\" (late/early < 0.5\nfor the "
                "harmonic mean).\n");
}

/** Labels of the VP variant columns of @p scheme at latency @p lat. */
std::vector<std::string>
variantLabels(VpScheme scheme, unsigned lat)
{
    std::vector<std::string> out;
    for (VpVariant v : VP_VARIANTS)
        out.push_back(vpLabel(scheme, v, lat));
    return out;
}

/** The "bench" column, the four VP variant columns and, with
 *  @p with_ir, the reuse column. */
std::vector<std::string>
variantHeader(bool with_ir)
{
    std::vector<std::string> h = {"bench"};
    for (VpVariant v : VP_VARIANTS)
        h.push_back(vpConfigLabel(v.reexec, v.branch));
    if (with_ir)
        h.push_back("reuse-n+d");
    return h;
}

void
printFig4(const Results &r)
{
    for (unsigned lat : {0u, 1u}) {
        std::printf("--- %u-cycle VP-verification latency ---\n", lat);
        TextTable t(variantHeader(true));
        std::vector<std::string> labels =
            variantLabels(VpScheme::Magic, lat);
        labels.push_back("ir-early");
        for (const auto &name : workloadNames()) {
            double b = branchResLat(r.at(name, "base"));
            std::vector<std::string> row = {name};
            for (const std::string &label : labels)
                row.push_back(TextTable::num(
                    b > 0 ? branchResLat(r.at(name, label)) / b : 0.0,
                    3));
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("shape checks: all configurations reduce the latency; "
                "SB reduces it more\nthan NSB; with 1-cycle "
                "verification the NSB reduction shrinks toward the\n"
                "base; the reuse bars are identical in both halves "
                "and among the lowest.\n");
}

void
printFig5(const Results &r)
{
    std::vector<std::string> header = variantHeader(true);
    header.insert(header.begin() + 1, "base");
    TextTable t(header);
    std::vector<std::string> labels = variantLabels(VpScheme::Magic, 0);
    labels.push_back("ir-early");
    for (const auto &name : workloadNames()) {
        double b = contention(r.at(name, "base"));
        std::vector<std::string> row = {name, "1.000"};
        for (const std::string &label : labels)
            row.push_back(TextTable::num(
                b > 0 ? contention(r.at(name, label)) / b : 0.0, 3));
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape checks: VP raises contention (re-executions "
                "and earlier-ready\ninstructions clustering "
                "requests); IR mostly lowers it (reused\n"
                "instructions never occupy execution resources); "
                "ME and NME are nearly\nidentical, as in the paper's "
                "discussion of Table 6.\n");
}

/** One latency half of Figure 6 / 7: speedups over base for the four
 *  VP variants of @p scheme (and IR with @p with_ir), plus HM bars. */
void
speedupHalf(const Results &r, VpScheme scheme, unsigned lat, bool with_ir)
{
    std::printf("--- %u-cycle VP-verification latency ---\n", lat);
    TextTable t(variantHeader(with_ir));
    std::vector<std::string> labels = variantLabels(scheme, lat);
    if (with_ir)
        labels.push_back("ir-early");
    std::vector<std::vector<double>> cols(labels.size());
    for (const auto &name : workloadNames()) {
        const CoreStats &base = r.at(name, "base");
        std::vector<std::string> row = {name};
        for (size_t c = 0; c < labels.size(); ++c) {
            cols[c].push_back(speedup(r.at(name, labels[c]), base));
            row.push_back(TextTable::num(cols[c].back(), 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> hm = {"HM"};
    for (const std::vector<double> &col : cols)
        hm.push_back(TextTable::num(harmonicMean(col), 3));
    t.addRow(hm);
    std::printf("%s\n", t.render().c_str());
}

void
printFig6(const Results &r)
{
    speedupHalf(r, VpScheme::Magic, 0, true);
    speedupHalf(r, VpScheme::Magic, 1, true);
    std::printf(
        "shape checks (paper §4.2.4):\n"
        "  1. SB outperforms NSB for VP_Magic (spurious squashes are "
        "outweighed by\n     earlier resolution).\n"
        "  2. ME vs NME is negligible.\n"
        "  3. 1-cycle verification hurts, and hurts NSB more than "
        "SB.\n"
        "  4. IR can match or beat VP on some benchmarks despite "
        "capturing less\n     redundancy.\n");
}

void
printFig7(const Results &r)
{
    speedupHalf(r, VpScheme::Lvp, 0, false);
    speedupHalf(r, VpScheme::Lvp, 1, false);
    std::printf(
        "shape checks (paper §4.2.4):\n"
        "  1. With LVP's accuracy, SB configurations degrade "
        "performance (< 1.0)\n     on most benchmarks.\n"
        "  2. Unlike VP_Magic, NSB beats SB: with high value "
        "misprediction rates\n     it pays to delay branch "
        "resolution.\n"
        "  3. 1-cycle verification lowers everything further.\n");
}

void
printFig8(const Results &r)
{
    TextTable t({"bench", "unique %", "repeated %", "derivable %",
                 "unaccounted %"});
    for (size_t i = 0; i < workloadNames().size(); ++i) {
        const RedundancyStats &st = r.redundancy[i];
        double rp = static_cast<double>(st.resultProducing);
        t.addRow({workloadNames()[i], TextTable::num(pct(st.unique, rp), 1),
                  TextTable::num(pct(st.repeated, rp), 1),
                  TextTable::num(pct(st.derivable, rp), 1),
                  TextTable::num(pct(st.unaccounted, rp), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's shape: few (<5%%) unique results, most "
                "(80-90%%) repeated, few\n(<5%%) derivable; the "
                "buffering cap (10K instances/static instruction)\n"
                "leaves a small unaccounted remainder.\n");
}

void
printFig9(const Results &r)
{
    TextTable t({"bench", "prod reused %", "prod-dist >= 50 %",
                 "prod-dist < 50 %"});
    for (size_t i = 0; i < workloadNames().size(); ++i) {
        const RedundancyStats &st = r.redundancy[i];
        double rep = static_cast<double>(st.repeated);
        t.addRow({workloadNames()[i],
                  TextTable::num(pct(st.prodReused, rep), 1),
                  TextTable::num(pct(st.prodFar, rep), 1),
                  TextTable::num(pct(st.prodNear, rep), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's shape: for most repeated instructions the "
                "inputs are ready\nbecause their producers are "
                "themselves reused; fewer than ~10%% have\nunreused "
                "producers within 50 instructions (inputs not "
                "ready), contrary\nto the expectation that decode-"
                "time operands are rarely available.\n");
}

void
printFig10(const Results &r)
{
    TextTable t({"bench", "redundant %", "reusable %",
                 "reusable/redundant %"});
    for (size_t i = 0; i < workloadNames().size(); ++i) {
        const RedundancyStats &st = r.redundancy[i];
        double rp = static_cast<double>(st.resultProducing);
        t.addRow({workloadNames()[i],
                  TextTable::num(pct(st.redundant(), rp), 1),
                  TextTable::num(pct(st.reusable, rp), 1),
                  TextTable::num(100.0 * st.reusableFraction(), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's claim: \"most (84-97%%) of the redundant "
                "instructions in programs\nare amenable to reuse\" — "
                "detecting redundancy non-speculatively from\n"
                "operands does not significantly restrict IR.\n");
}

void
printAblation(const Results &r)
{
    std::printf("--- 1. VP_Magic ME-SB: which predictions matter "
                "---\n");
    TextTable t1({"bench", "full", "results only", "addresses only"});
    for (const auto &name : workloadNames()) {
        const CoreStats &base = r.at(name, "base");
        std::vector<std::string> row = {name};
        for (const char *label : {"magic-me-sb-0", "vp-res", "vp-addr"})
            row.push_back(
                TextTable::num(speedup(r.at(name, label), base), 3));
        t1.addRow(row);
    }
    std::printf("%s\n", t1.render().c_str());

    std::printf("--- 2. capture rate vs capacity (m88ksim, perl) "
                "---\n");
    TextTable t2({"entries (RB / VPT)", "m88k reuse %", "m88k pred %",
                  "perl reuse %", "perl pred %"});
    for (unsigned rb : RB_ENTRIES) {
        std::string tag = std::to_string(rb);
        std::vector<std::string> row = {tag + " / " +
                                        std::to_string(rb * 4)};
        for (const char *name : {"m88ksim", "perl"}) {
            row.push_back(TextTable::num(
                overInsts(r.at(name, "ir-" + tag).reusedResults,
                          r.at(name, "ir-" + tag)),
                1));
            row.push_back(TextTable::num(
                overInsts(r.at(name, "vp-" + tag).vpResultCorrect,
                          r.at(name, "vp-" + tag)),
                1));
        }
        t2.addRow(row);
    }
    std::printf("%s\n", t2.render().c_str());
    std::printf("observation: once the hot static instructions fit, "
                "capture is bounded\nby the 4 instances per "
                "instruction, not capacity — supporting the paper's\n"
                "equal-hardware sizing of the two structures.\n");
}

void
printHybrid(const Results &r)
{
    TextTable t({"bench", "VP(Magic,SB)", "IR", "hybrid",
                 "hyb reuse %", "hyb pred %"});
    std::vector<double> vp_s, ir_s, hy_s;
    for (const auto &name : workloadNames()) {
        const CoreStats &base = r.at(name, "base");
        const CoreStats &hy = r.at(name, "hybrid");
        vp_s.push_back(speedup(r.at(name, "magic-me-sb-0"), base));
        ir_s.push_back(speedup(r.at(name, "ir-early"), base));
        hy_s.push_back(speedup(hy, base));
        t.addRow({name, TextTable::num(vp_s.back(), 3),
                  TextTable::num(ir_s.back(), 3),
                  TextTable::num(hy_s.back(), 3),
                  TextTable::num(overInsts(hy.reusedResults, hy), 1),
                  TextTable::num(overInsts(hy.vpResultCorrect, hy), 1)});
    }
    t.addRow({"HM", TextTable::num(harmonicMean(vp_s), 3),
              TextTable::num(harmonicMean(ir_s), 3),
              TextTable::num(harmonicMean(hy_s), 3), "", ""});
    std::printf("%s\n", t.render().c_str());
    std::printf("reused instructions never re-execute or verify; "
                "predictions cover the\noperand-test misses — the "
                "combination the paper's section 5 anticipates.\n");
}

} // anonymous namespace

// ------------------------------------------------------------- manifest

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> all = {
        {.name = "table1",
         .title = "Table 1",
         .what = "details of the base simulator",
         .print = printTable1},
        {.name = "table2",
         .title = "Table 2",
         .what = "benchmarks, branch and return prediction rates",
         .cells = cells(base()),
         .print = printTable2},
        {.name = "table3",
         .title = "Table 3",
         .what = "percentage IR and VP rates",
         .cells = cells(ir(), magic(),
                        vp(VpScheme::Lvp, VP_VARIANTS[0], 0)),
         .print = printTable3},
        {.name = "table4",
         .title = "Table 4",
         .what = "percent increase in control squashes (spurious "
                 "mispredictions)",
         .cells = cells(magic(), vp(VpScheme::Magic, VP_VARIANTS[1], 0),
                        vp(VpScheme::Lvp, VP_VARIANTS[0], 0),
                        vp(VpScheme::Lvp, VP_VARIANTS[1], 0)),
         .print = printTable4},
        {.name = "table5",
         .title = "Table 5",
         .what = "executed instructions squashed, and squashed work "
                 "recovered by IR",
         .cells = cells(ir()),
         .print = printTable5},
        {.name = "table6",
         .title = "Table 6",
         .what = "instructions executed 1 / 2 / 3 times "
                 "(VP_Magic, ME-SB, 1-cycle)",
         .cells = cells(vp(VpScheme::Magic, VP_VARIANTS[0], 1)),
         .print = printTable6},
        {.name = "fig3",
         .title = "Figure 3",
         .what = "performance benefits of early validation",
         .cells = cells(base(), ir(), ir(IrValidation::Late)),
         .print = printFig3},
        {.name = "fig4",
         .title = "Figure 4",
         .what = "branch resolution latency, normalised to base (< 1.0 "
                 "is better)",
         .cells = cells(base(), ir(), vpVariants(VpScheme::Magic, 0),
                        vpVariants(VpScheme::Magic, 1)),
         .print = printFig4},
        {.name = "fig5",
         .title = "Figure 5",
         .what = "resource contention normalised to base",
         .cells = cells(base(), ir(), vpVariants(VpScheme::Magic, 0)),
         .print = printFig5},
        {.name = "fig6",
         .title = "Figure 6",
         .what = "speedups with VP_Magic and IR (S_n+d)",
         .cells = cells(base(), ir(), vpVariants(VpScheme::Magic, 0),
                        vpVariants(VpScheme::Magic, 1)),
         .print = printFig6},
        {.name = "fig7",
         .title = "Figure 7",
         .what = "speedups with VP_LVP",
         .cells = cells(base(), vpVariants(VpScheme::Lvp, 0),
                        vpVariants(VpScheme::Lvp, 1)),
         .print = printFig7},
        {.name = "fig8",
         .title = "Figure 8",
         .what = "classification of results: unique / repeated / "
                 "derivable / unaccounted",
         .limitStudy = true,
         .print = printFig8},
        {.name = "fig9",
         .title = "Figure 9",
         .what = "repeated instructions by producer readiness",
         .limitStudy = true,
         .print = printFig9},
        {.name = "fig10",
         .title = "Figure 10",
         .what = "amount of redundancy that can be reused",
         .limitStudy = true,
         .print = printFig10},
        {.name = "ablation",
         .title = "Ablations",
         .what = "VP prediction kinds and structure capacity",
         .cells = ablationCells(),
         .print = printAblation},
        {.name = "hybrid",
         .title = "Hybrid (extension)",
         .what = "speedups: VP alone, IR alone, IR-first hybrid",
         .cells = cells(base(), magic(), ir(),
                        onAll("hybrid", hybridConfig())),
         .print = printHybrid},
    };
    return all;
}

const Experiment &
experiment(const std::string &name)
{
    for (const Experiment &e : experiments())
        if (name == e.name)
            return e;
    panic("no experiment named '" + name + "'");
}

std::vector<sweep::SweepCell>
sweepCells(const Experiment &e, uint64_t inst_limit, WorkloadScale scale)
{
    std::vector<sweep::SweepCell> out;
    for (const CellSpec &c : e.cells)
        for (const std::string &program : c.programs)
            out.push_back({program, c.label,
                           withLimits(c.params, inst_limit), scale});
    return out;
}

} // namespace bench
} // namespace vpir
