/**
 * @file
 * vpir_perfbench: run one benchmark workload and print its metrics.
 *
 *   vpir_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> --workdir <dir> --reference <file>
 *                  [--trace-out <file>] [--record <file>] [--tiny]
 *
 * Set-up is timed before and after the rounds (median reported).
 * Fixed-size rounds of the workload repeat for about --seconds;
 * end-to-end metrics are medians over rounds. With --trace 1, every
 * other round records spans and the per-layer metrics are printed
 * instead; the untraced rounds of the same run give the tracing
 * overhead.
 *
 * Every cell's simulated output is digested and checked against the
 * recorded reference and across rounds; any failure, divergence or
 * mismatch is reported on stderr and the exit status is 1. The last
 * line of stdout is the JSON result.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common.hh"
#include "sim/warm_cache.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json; the self-test compares them.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"cells_per_s", "1/s"},
    {"detailed_mips", "MIPS"}, {"covered_mips", "MIPS"},
    {"cell_p50_ms", "ms"},     {"cell_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"workload.build_ms", "ms"},
    {"fuzz.generate_ms", "ms"},
    {"fuzz.diff_ms", "ms"},
    {"fuzz.program_insts", "inst"},
    {"emu.mips", "MIPS"},
    {"emu.snapshot_build_ms", "ms"},
    {"sim.warm_hit_frac", "fraction"},
    {"sim.core_build_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.mips", "MIPS"},
    {"core.host_ns_per_cycle", "ns/cycle"},
    {"core.idle_skip_frac", "fraction"},
    {"core.exec_per_commit", "inst/inst"},
    {"core.stage_ns.fetch", "ns/inst"},
    {"core.stage_ns.dispatch", "ns/inst"},
    {"core.stage_ns.issue", "ns/inst"},
    {"core.stage_ns.execute", "ns/inst"},
    {"core.stage_ns.commit", "ns/inst"},
    {"core.ipc", "inst/cycle"},
    {"core.squashes_per_kinst", "1/kinst"},
    {"core.spurious_squash_frac", "fraction"},
    {"core.resource_denied_frac", "fraction"},
    {"vp.result_coverage", "fraction"},
    {"vp.result_accuracy", "fraction"},
    {"vp.addr_accuracy", "fraction"},
    {"vp.reexec_per_kinst", "1/kinst"},
    {"reuse.result_rate", "fraction"},
    {"reuse.addr_rate", "fraction"},
    {"reuse.squash_recovered_frac", "fraction"},
    {"bpred.cond_accuracy", "fraction"},
    {"bpred.ret_accuracy", "fraction"},
    {"mem.icache_miss_rate", "fraction"},
    {"mem.dcache_miss_rate", "fraction"},
    {"check.checked_frac", "fraction"},
    {"redundancy.mips", "MIPS"},
    {"sweep.pool_busy_frac", "fraction"},
    {"sweep.tail_idle_s", "s"},
    {"sweep.store_get_us", "us"},
    {"sweep.store_bytes_per_cell", "bytes"},
    {"sweep.stats_json_decode_us", "us"},
    {"sweep.stats_json_encode_us", "us"},
    {"paper_mae_pp", "pp"},
    {"cell_p99_ms", "ms"},
    {"trace.overhead_s", "s"},
    {"workload.self_s", "s"},
    {"emu.self_s", "s"},
    {"sim.self_s", "s"},
    {"core.self_s", "s"},
    {"fuzz.self_s", "s"},
    {"redundancy.self_s", "s"},
    {"sweep.self_s", "s"},
};

// Set-up is timed in samples: one sample is the mean of as many
// back-to-back set-ups as last kSetupSampleS. On a shared host the
// speed of a core has been seen to switch between two levels 1.25x to
// 1.6x apart, staying at one for anything from a fraction of a second
// to about a minute. So samples are taken in two phases, before the
// timed rounds and after them, each until kSetupPhaseS has passed and
// with at least kMinSetupSamples in all; setup_s is the median of all
// samples, and spans the run as the round metrics do.
constexpr int kMinSetupSamples = 3;
constexpr double kSetupSampleS = 0.2;
constexpr double kSetupPhaseS = 1.0;
// Worker threads per round. On a host of a few cores shared with other
// machines, a pool as wide as the core count times the host's
// scheduler as much as the simulator.
constexpr unsigned kMaxJobs = 2;
constexpr size_t kMaxReported = 20;
constexpr size_t kKeptTraced = 2;

void
usage()
{
    std::fprintf(stderr,
                 "usage: vpir_perfbench --workload "
                 "<paper-sweep|fast-forward|fuzz-campaign|store-replay> "
                 "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
                 "--reference <file> [--trace-out <file>] "
                 "[--record <file>] [--tiny]\n");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (a == "--workdir") {
            o.workdir = v;
        } else if (a == "--reference") {
            o.reference = v;
        } else if (a == "--record") {
            o.record = v;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !o.workload.empty() && !o.workdir.empty() && o.seconds > 0.0 &&
           (!o.reference.empty() || !o.record.empty());
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper-sweep")
        return makePaperSweep(o);
    if (o.workload == "fast-forward")
        return makeFastForward(o);
    if (o.workload == "fuzz-campaign")
        return makeFuzzCampaign(o);
    if (o.workload == "store-replay")
        return makeStoreReplay(o);
    return nullptr;
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/**
 * Recorded digests, one line per cell:
 *   <workload> <full|tiny> <cell key> <stats digest> <label>
 */
class Reference
{
  public:
    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::string w, size, key, digest;
            if (!(ls >> w >> size >> key >> digest))
                continue;
            entries[w + " " + size + " " + key] = line;
            digests[w + " " + size + " " + key] =
                std::strtoull(digest.c_str(), nullptr, 16);
        }
        return true;
    }

    const uint64_t *
    find(const std::string &id) const
    {
        auto it = digests.find(id);
        return it == digests.end() ? nullptr : &it->second;
    }

    /** Replace every entry of (workload, size) by @p fresh, then save. */
    bool
    save(const std::string &path, const std::string &prefix,
         const std::map<std::string, std::string> &fresh)
    {
        for (auto it = entries.begin(); it != entries.end();) {
            if (it->first.rfind(prefix, 0) == 0)
                it = entries.erase(it);
            else
                ++it;
        }
        for (const auto &[id, line] : fresh)
            entries[id] = line;
        std::ofstream out(path);
        for (const auto &kv : entries)
            out << kv.second << "\n";
        return out.good();
    }

  private:
    std::map<std::string, uint64_t> digests;
    std::map<std::string, std::string> entries;
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** What an untraced round contributes to the end-to-end metrics. */
struct RoundSummary
{
    double wall = 0.0;
    double cpu = 0.0;
    size_t cells = 0;
    double detailedMips = 0.0;
    double coveredMips = 0.0;
    double poolBusy = 0.0; //!< Σ cell time / (workers × wall)
    double tailIdle = 0.0; //!< first worker running dry -> round end
};

RoundSummary
summarize(const Round &r, unsigned jobs, std::vector<float> &latMs)
{
    RoundSummary s;
    s.wall = r.wall;
    s.cpu = r.cpu;
    s.cells = r.cells.size();
    uint64_t det = 0, fun = 0;
    double busy = 0.0;
    std::map<unsigned, double> lastEnd;
    for (const CellSample &c : r.cells) {
        det += c.detailedInsts;
        fun += c.functionalInsts;
        busy += c.latency();
        latMs.push_back(static_cast<float>(1e3 * c.latency()));
        lastEnd[c.worker] = std::max(lastEnd[c.worker], c.end);
    }
    s.detailedMips = static_cast<double>(det) / r.wall / 1e6;
    s.coveredMips = static_cast<double>(det + fun) / r.wall / 1e6;
    s.poolBusy = ratio(busy, jobs * r.wall);
    double firstIdle = r.wall;
    for (const auto &kv : lastEnd)
        firstIdle = std::min(firstIdle, kv.second);
    s.tailIdle = r.wall - firstIdle;
    return s;
}

void
writeSpans(const std::string &path, const std::vector<Round> &rounds)
{
    std::ofstream out(path);
    for (size_t i = 0; i < rounds.size(); ++i) {
        for (const CellSample &c : rounds[i].cells) {
            for (size_t s = 0; s < c.spans.size(); ++s) {
                const Span &sp = c.spans[s];
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "\"span\": %zu, \"parent\": %d, \"layer\": "
                              "\"%s\", \"op\": \"%s\", \"t0\": %.9f, "
                              "\"t1\": %.9f}",
                              s, sp.parent, sp.layer, sp.op, sp.t0, sp.t1);
                out << "{\"round\": " << i << ", \"cell\": \""
                    << hex16(c.key) << "\", \"label\": \"" << c.label
                    << "\", " << buf << "\n";
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Keep freed memory in the process. By default glibc returns the top
    // of the heap to the kernel and moves its mmap threshold as it goes,
    // so whether each set-up or cell faults its memory back in depends
    // on the heap's layout: a millisecond set-up then reads 0.8 ms in
    // one process and 1.1 ms in the next. Fixed thresholds make every
    // run reuse its memory the same way.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    opt.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        usage();
        return 2;
    }
    Reference ref;
    if (!ref.load(opt.record.empty() ? opt.reference : opt.record) &&
        opt.record.empty()) {
        std::fprintf(stderr, "cannot read reference '%s'\n",
                     opt.reference.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.workdir);
    const std::string size = opt.tiny ? "tiny" : "full";
    const std::string refPrefix = opt.workload + " " + size + " ";
    // Fuzz programs come from the run's seed, so only seeds recorded
    // on purpose have reference digests; every other workload's cells
    // are fixed and must all be recorded.
    const bool refRequired = opt.workload != "fuzz-campaign";

    std::vector<double> setupTimes, setupDetailed;
    auto setupPhase = [&](size_t minSamples) {
        const auto phase0 = std::chrono::steady_clock::now();
        for (size_t n = 0;
             n < minSamples || secondsSince(phase0) < kSetupPhaseS; ++n) {
            auto t0 = std::chrono::steady_clock::now();
            int reps = 0;
            do {
                Workload::SetupWork sw = w->setup();
                if (sw.seconds > 0.0)
                    setupDetailed.push_back(sw.detailedInsts / sw.seconds /
                                            1e6);
                ++reps;
            } while (secondsSince(t0) < kSetupSampleS);
            setupTimes.push_back(secondsSince(t0) / reps);
        }
    };
    setupPhase(kMinSetupSamples - 1);

    std::vector<std::string> problems;
    std::map<uint64_t, uint64_t> firstDigest;
    std::map<std::string, std::string> recorded;
    uint64_t attempted = 0, failed = 0, warmHits = 0, warmLookups = 0;
    size_t nProblems = 0;
    auto problem = [&](const std::string &msg) {
        if (nProblems++ < kMaxReported)
            problems.push_back(msg);
    };

    // Untraced rounds shrink to a summary as they finish; traced rounds
    // keep their samples for the per-layer metrics, up to kKeptTraced,
    // so the benchmark's own bookkeeping stays small next to the
    // simulator's memory.
    std::vector<RoundSummary> plain;
    std::vector<Round> traced;
    std::vector<double> tracedWalls;
    std::vector<float> latMs; // float: store-replay keeps ~10^5 samples
    size_t rounds = 0;
    double lastWall = 0.0;
    const auto phase0 = std::chrono::steady_clock::now();
    for (;; ++rounds) {
        // Start another round only if half of it fits in --seconds, so
        // a workload with long rounds does not run a whole round over.
        const size_t minRounds = opt.trace ? 2 : 1;
        if (rounds >= minRounds &&
            secondsSince(phase0) + 0.5 * lastWall >= opt.seconds)
            break;
        Round r;
        r.index = rounds;
        r.traced = opt.trace && rounds % 2 == 1;
        w->prepareRound();
        if (r.traced)
            setenv("VPIR_PROFILE", "1", 1);
        else
            unsetenv("VPIR_PROFILE");
        vpir::WarmStartCache::Counters wc0 =
            vpir::WarmStartCache::global().counters();
        double cpu0 = cpuSeconds();
        r.start = std::chrono::steady_clock::now();
        w->round(r);
        r.wall = secondsSince(r.start);
        r.cpu = cpuSeconds() - cpu0;
        lastWall = r.wall;
        vpir::WarmStartCache::Counters wc1 =
            vpir::WarmStartCache::global().counters();
        if (r.traced) {
            uint64_t hits = (wc1.programHits - wc0.programHits) +
                            (wc1.snapshotHits - wc0.snapshotHits);
            warmHits += hits;
            warmLookups += hits + (wc1.programBuilds - wc0.programBuilds) +
                           (wc1.snapshotBuilds - wc0.snapshotBuilds);
        }
        w->finishRound(r);
        std::fprintf(stderr, "round %zu%s: wall %.3f s, cpu %.3f s\n",
                     rounds, r.traced ? " (traced)" : "", r.wall, r.cpu);

        for (const CellSample &c : r.cells) {
            ++attempted;
            if (c.failed) {
                ++failed;
                problem(c.label + ": " + c.error);
                continue;
            }
            std::string id = refPrefix + hex16(c.key);
            if (!opt.record.empty()) {
                recorded[id] = id + " " + hex16(c.digest) + " " + c.label;
            } else if (const uint64_t *want = ref.find(id)) {
                if (*want != c.digest)
                    problem(c.label + ": simulated stats differ from the "
                                      "recorded reference");
            } else if (refRequired) {
                problem(c.label + ": no recorded reference");
            }
            auto [it, fresh] = firstDigest.emplace(c.key, c.digest);
            if (!fresh && it->second != c.digest)
                problem(c.label + ": simulated stats differ between rounds");
        }
        if (!r.traced) {
            plain.push_back(summarize(r, opt.jobs, latMs));
        } else {
            tracedWalls.push_back(r.wall);
            if (traced.size() < kKeptTraced)
                traced.push_back(std::move(r));
        }
    }
    setupPhase(1);
    for (const std::string &p : w->finalChecks())
        problem(p);

    std::vector<double> walls, cpus, rates, detailed, covered, busy, tail;
    for (const RoundSummary &s : plain) {
        walls.push_back(s.wall);
        cpus.push_back(s.cpu);
        rates.push_back(static_cast<double>(s.cells) / s.wall);
        detailed.push_back(s.detailedMips);
        covered.push_back(s.coveredMips);
        busy.push_back(s.poolBusy);
        tail.push_back(s.tailIdle);
    }
    // A workload whose timed phase simulates nothing (store-replay)
    // reports the rate of the simulation its set-up did, which has no
    // functional part.
    if (median(detailed) == 0.0 && !setupDetailed.empty()) {
        detailed = setupDetailed;
        covered = setupDetailed;
    }

    Metrics m;
    if (!opt.trace) {
        m["setup_s"] = {median(setupTimes), "s"};
        m["wall_s"] = {median(walls), "s"};
        m["cpu_s"] = {median(cpus), "s"};
        m["cells_per_s"] = {median(rates), "1/s"};
        m["detailed_mips"] = {median(detailed), "MIPS"};
        m["covered_mips"] = {median(covered), "MIPS"};
        std::vector<double> lat(latMs.begin(), latMs.end());
        m["cell_p50_ms"] = {percentile(lat, 0.5), "ms"};
        m["cell_p90_ms"] = {percentile(std::move(lat), 0.9), "ms"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        std::vector<const Round *> kept;
        std::map<std::string, double> self;
        for (const Round &r : traced) {
            kept.push_back(&r);
            for (const auto &[layer, s] : layerSelfSeconds(r))
                self[layer] += s / static_cast<double>(traced.size());
        }
        w->layerMetrics(kept, m);
        for (const auto &[layer, s] : self)
            m[layer + ".self_s"] = {s, "s"};
        m["sweep.pool_busy_frac"] = {median(busy), "fraction"};
        m["sweep.tail_idle_s"] = {median(tail), "s"};
        m["sim.warm_hit_frac"] = {
            ratio(static_cast<double>(warmHits),
                  static_cast<double>(warmLookups)),
            "fraction"};
        // The highest percentile with at least ten samples beyond it.
        m["cell_p99_ms"] = {
            latMs.size() >= 1000
                ? percentile(std::vector<double>(latMs.begin(), latMs.end()),
                             0.99)
                : 0.0,
            "ms"};
        m["trace.overhead_s"] = {median(tracedWalls) - median(walls), "s"};
    }

    // Print exactly the declared metrics, in declaration order; a layer
    // a workload does not exercise reads 0.
    std::set<std::string> declared;
    std::string json = "{";
    bool first = true;
    const MetricDef *defs = opt.trace ? kPerLayer : kEndToEnd;
    size_t ndefs = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    for (size_t i = 0; i < ndefs; ++i) {
        const MetricDef &d = defs[i];
        declared.insert(d.name);
        double v = 0.0;
        if (auto it = m.find(d.name); it != m.end()) {
            v = it->second.value;
            if (it->second.unit != d.unit)
                problem(std::string("metric ") + d.name + " unit mismatch");
        }
        if (!std::isfinite(v)) {
            problem(std::string("metric ") + d.name + " is not finite");
            v = 0.0;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", d.name, v, d.unit);
        json += buf;
        first = false;
        std::fprintf(stderr, "  %-30s %14.6g %s\n", d.name, v, d.unit);
    }
    json += "}";
    for (const auto &kv : m) {
        if (!declared.count(kv.first))
            problem("metric " + kv.first + " is not declared");
    }

    if (opt.trace && !opt.traceOut.empty())
        writeSpans(opt.traceOut, traced);
    if (!opt.record.empty() && failed == 0 &&
        !ref.save(opt.record, refPrefix, recorded))
        problem("cannot write reference '" + opt.record + "'");
    std::filesystem::remove_all(opt.workdir);

    std::fprintf(stderr,
                 "%s: seed %" PRIu64 ", %zu rounds (%zu traced), %" PRIu64
                 " cells, %" PRIu64 " failed, %zu problem(s)\n",
                 opt.workload.c_str(), opt.seed, rounds,
                 tracedWalls.size(), attempted, failed, nProblems);
    for (const std::string &p : problems)
        std::fprintf(stderr, "  FAIL %s\n", p.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                nProblems == 0 ? "true" : "false", attempted, failed,
                json.c_str());
    return nProblems == 0 ? 0 : 1;
}
