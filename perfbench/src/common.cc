#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "sweep/stats_json.hh"

namespace perfbench
{

using vpir::CoreStats;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

SpanScope::SpanScope(CellSample &c, const char *layer, const char *op,
                     bool on,
                     std::chrono::steady_clock::time_point roundStart)
    : cell(c), base(roundStart)
{
    if (!on)
        return;
    double t = secondsSince(base);
    index = addSpan(cell, layer, op, cell.openSpan, t, t);
    saved = cell.openSpan;
    cell.openSpan = index;
}

SpanScope::~SpanScope()
{
    if (index < 0)
        return;
    cell.spans[index].t1 = secondsSince(base);
    cell.openSpan = saved;
}

int
addSpan(CellSample &cell, const char *layer, const char *op, int parent,
        double t0, double t1)
{
    Span s;
    s.layer = layer;
    s.op = op;
    s.parent = parent;
    s.t0 = t0;
    s.t1 = t1;
    cell.spans.push_back(s);
    return static_cast<int>(cell.spans.size()) - 1;
}

std::map<std::string, double>
layerSelfSeconds(const Round &r)
{
    std::map<std::string, double> self;
    for (const CellSample &c : r.cells) {
        std::vector<double> child(c.spans.size(), 0.0);
        for (const Span &s : c.spans) {
            if (s.parent >= 0)
                child[s.parent] += s.t1 - s.t0;
        }
        for (size_t i = 0; i < c.spans.size(); ++i) {
            const Span &s = c.spans[i];
            self[s.layer] += std::max(0.0, (s.t1 - s.t0) - child[i]);
        }
    }
    return self;
}

double
meanSpanSeconds(const std::vector<const Round *> &rounds, const char *layer,
                const char *op)
{
    double sum = 0.0;
    size_t n = 0;
    for (const Round *r : rounds) {
        for (const CellSample &c : r->cells) {
            for (const Span &s : c.spans) {
                if (std::strcmp(s.layer, layer) == 0 &&
                    std::strcmp(s.op, op) == 0) {
                    sum += s.t1 - s.t0;
                    ++n;
                }
            }
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
runEngineCell(vpir::sweep::SweepEngine &eng,
              const vpir::sweep::SweepCell &cell, CellSample &s,
              const Round &r)
{
    s.key = vpir::sweep::cellHash(cell);
    s.label = cell.workload + "/" + cell.label;
    timeCell(s, r.start, [&] {
        SpanScope span(s, "sweep", "get", r.traced, r.start);
        s.stats = eng.get(cell);
    });
    s.hasStats = true;
    SpanScope span(s, "sweep", "stats_json_encode", r.traced, r.start);
    s.digest = statsDigest(s.stats);
}

void
attachEngineRecords(const vpir::sweep::SweepEngine &eng,
                    const std::vector<vpir::sweep::SweepCell> &cells,
                    Round &r)
{
    // Timing and failure records carry (workload, params hash), which
    // identifies a cell uniquely within one scale.
    auto id = [](const std::string &w, uint64_t ph) {
        return w + "#" + std::to_string(ph);
    };
    std::map<std::string, vpir::sweep::CellTiming> timings;
    for (vpir::sweep::CellTiming &t : eng.timings())
        timings[id(t.workload, t.paramsHash)] = std::move(t);
    std::map<std::string, std::string> errors;
    for (const vpir::sweep::CellFailure &f : eng.failures())
        errors[id(f.workload, f.paramsHash)] = f.error;

    for (size_t i = 0; i < cells.size(); ++i) {
        const vpir::sweep::SweepCell &cell = cells[i];
        CellSample &s = r.cells[i];
        std::string k = id(cell.workload,
                           vpir::sweep::hashParams(cell.params));
        if (auto e = errors.find(k); e != errors.end()) {
            s.failed = true;
            s.error = "CellFailure: " + e->second;
            continue;
        }
        auto t = timings.find(k);
        if (t == timings.end()) {
            s.failed = true;
            s.error = "no timing record (cell skipped?)";
            continue;
        }
        s.timing = t->second;
        s.hasTiming = true;
        if (!s.timing.fromDiskCache)
            s.detailedInsts = s.stats.committedInsts;
        if (s.timing.warmed)
            s.functionalInsts = cell.params.warmupInsts;
        if (s.stats.committedInsts != cell.params.maxInsts &&
            !s.stats.haltedCleanly) {
            s.failed = true;
            s.error = "committed " +
                      std::to_string(s.stats.committedInsts) + " of " +
                      std::to_string(cell.params.maxInsts) +
                      " instructions without halting cleanly";
        }
        if (r.traced && !s.spans.empty()) {
            // Span 0 is the get() call; the engine's phase split sits
            // inside it, set-up first.
            const vpir::sweep::CellTiming &ct = s.timing;
            double t0 = s.spans[0].t0;
            const char *layer = ct.warmed      ? "emu"
                                : ct.assembled ? "workload"
                                               : "sim";
            const char *op = ct.warmed      ? "snapshot_build"
                             : ct.assembled ? "assemble"
                                            : "core_build";
            addSpan(s, layer, op, 0, t0, t0 + ct.setupSeconds);
            addSpan(s, "core", "run", 0, t0 + ct.setupSeconds,
                    t0 + ct.setupSeconds + ct.runSeconds);
        }
    }
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
statsDigest(const CoreStats &st)
{
    return fnv1a(vpir::sweep::statsToJson(st));
}

void
addStats(CoreStats &dst, const CoreStats &src)
{
    std::vector<uint64_t> vals;
    vpir::sweep::forEachStatField(
        src, [&](const char *, const uint64_t &v) { vals.push_back(v); });
    size_t i = 0;
    vpir::sweep::forEachStatField(
        dst, [&](const char *, uint64_t &v) { v += vals[i++]; });
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

void
simulatedCountMetrics(const CoreStats &s, Metrics &out)
{
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    out["core.ipc"] = {ratio(d(s.committedInsts), d(s.cycles)), "inst/cycle"};
    out["core.squashes_per_kinst"] = {
        1000.0 * ratio(d(s.branchSquashes), d(s.committedInsts)),
        "1/kinst"};
    out["core.spurious_squash_frac"] = {
        ratio(d(s.spuriousSquashes), d(s.branchSquashes)), "fraction"};
    out["core.resource_denied_frac"] = {
        ratio(d(s.resourceDenied), d(s.resourceRequests)), "fraction"};
    out["core.exec_per_commit"] = {
        ratio(d(s.executedInsts), d(s.committedInsts)), "inst/inst"};
    out["vp.result_coverage"] = {
        ratio(d(s.vpResultPredicted), d(s.committedInsts)), "fraction"};
    out["vp.result_accuracy"] = {
        ratio(d(s.vpResultCorrect), d(s.vpResultPredicted)), "fraction"};
    out["vp.addr_accuracy"] = {
        ratio(d(s.vpAddrCorrect), d(s.vpAddrPredicted)), "fraction"};
    out["vp.reexec_per_kinst"] = {
        1000.0 * ratio(d(s.valueMispredictEvents), d(s.committedInsts)),
        "1/kinst"};
    out["reuse.result_rate"] = {
        ratio(d(s.reusedResults), d(s.committedInsts)), "fraction"};
    out["reuse.addr_rate"] = {
        ratio(d(s.reusedAddrs), d(s.committedMemOps)), "fraction"};
    out["reuse.squash_recovered_frac"] = {
        ratio(d(s.squashedRecovered), d(s.squashedExecuted)), "fraction"};
    out["bpred.cond_accuracy"] = {
        1.0 - ratio(d(s.condMispredicted), d(s.condBranches)), "fraction"};
    out["bpred.ret_accuracy"] = {
        1.0 - ratio(d(s.returnMispredicted), d(s.returns)), "fraction"};
    out["mem.icache_miss_rate"] = {
        ratio(d(s.icacheMisses), d(s.icacheAccesses)), "fraction"};
    out["mem.dcache_miss_rate"] = {
        ratio(d(s.dcacheMisses), d(s.dcacheAccesses)), "fraction"};
    out["check.checked_frac"] = {
        ratio(d(s.checkedInsts), d(s.committedInsts)), "fraction"};
}

void
engineCellMetrics(const std::vector<const Round *> &traced, Metrics &out)
{
    double run = 0.0, coreBuild = 0.0, snapBuild = 0.0;
    uint64_t runCells = 0, coreBuilds = 0, snaps = 0;
    uint64_t insts = 0, warmInsts = 0, cycles = 0, skipped = 0;
    vpir::SchedProfile prof;
    for (const Round *r : traced) {
        for (const CellSample &c : r->cells) {
            if (!c.hasTiming || c.timing.fromDiskCache)
                continue;
            const vpir::sweep::CellTiming &t = c.timing;
            run += t.runSeconds;
            ++runCells;
            insts += c.stats.committedInsts;
            cycles += c.stats.cycles;
            if (t.warmed) {
                snapBuild += t.setupSeconds;
                warmInsts += c.functionalInsts;
                ++snaps;
            } else if (!t.assembled) {
                coreBuild += t.setupSeconds;
                ++coreBuilds;
            }
            skipped += t.profile.idleSkippedCycles;
            prof.fetchNs += t.profile.fetchNs;
            prof.dispatchNs += t.profile.dispatchNs;
            prof.issueNs += t.profile.issueNs;
            prof.executeNs += t.profile.executeNs;
            prof.commitNs += t.profile.commitNs;
        }
    }
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    out["core.run_ms"] = {1e3 * ratio(run, d(runCells)), "ms"};
    out["core.mips"] = {ratio(d(insts), run) / 1e6, "MIPS"};
    out["core.host_ns_per_cycle"] = {1e9 * ratio(run, d(cycles)),
                                     "ns/cycle"};
    out["core.idle_skip_frac"] = {ratio(d(skipped), d(cycles)), "fraction"};
    out["sim.core_build_ms"] = {1e3 * ratio(coreBuild, d(coreBuilds)),
                                "ms"};
    out["emu.snapshot_build_ms"] = {1e3 * ratio(snapBuild, d(snaps)), "ms"};
    // A snapshot build is the functional warmup plus one core
    // construction; the core part is small next to millions of
    // emulated instructions.
    out["emu.mips"] = {ratio(d(warmInsts), snapBuild) / 1e6, "MIPS"};
    const std::pair<const char *, uint64_t> stages[] = {
        {"fetch", prof.fetchNs},       {"dispatch", prof.dispatchNs},
        {"issue", prof.issueNs},       {"execute", prof.executeNs},
        {"commit", prof.commitNs}};
    for (const auto &st : stages) {
        out[std::string("core.stage_ns.") + st.first] = {
            ratio(d(st.second), d(insts)), "ns/inst"};
    }
}

unsigned
workerIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next.fetch_add(1);
    return id;
}

} // namespace perfbench
