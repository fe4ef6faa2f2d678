/**
 * @file
 * store-replay: the result store as a front door. Set-up fills a store
 * with short-budget cells across every paper configuration on the
 * engine's own worker pool. Each timed request then opens a fresh
 * SweepEngine on that store and asks for one cell, as a user process
 * would; every answer must come from disk and equal what the fill
 * computed. Closed loop, one request in flight per client, one client
 * per pool worker. The timing core does no work here.
 */

#include <filesystem>

#include "common.hh"
#include "sim/warm_cache.hh"
#include "sweep/stats_json.hh"

namespace perfbench
{

using namespace vpir;
using sweep::SweepCell;

namespace
{

class StoreReplay : public Workload
{
  public:
    explicit StoreReplay(const Options &o)
        : opt(o), cells(paperSweepCells(o.tiny ? 2000 : 50000)),
          store(o.workdir + "/replay-store")
    {}

    SetupWork
    setup() override
    {
        WarmStartCache &cache = WarmStartCache::global();
        cache.clear();
        for (const std::string &name : workloadNames()) {
            auto t0 = std::chrono::steady_clock::now();
            cache.workload(name, WorkloadScale{});
            buildSeconds.push_back(secondsSince(t0));
        }
        std::filesystem::remove_all(store);

        auto t0 = std::chrono::steady_clock::now();
        sweep::SweepEngine eng(opt.jobs, store);
        for (const SweepCell &c : cells)
            eng.prefetch(c);
        eng.drain();
        SetupWork work;
        work.seconds = secondsSince(t0);

        Round r;
        r.cells.resize(cells.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            CellSample &s = r.cells[i];
            s.key = sweep::cellHash(cells[i]);
            s.label = cells[i].workload + "/" + cells[i].label;
            s.stats = eng.get(cells[i]);
            s.hasStats = true;
            s.digest = statsDigest(s.stats);
        }
        attachEngineRecords(eng, cells, r);
        fill = std::move(r.cells);
        for (const CellSample &s : fill) {
            work.detailedInsts += s.detailedInsts;
            if (s.failed)
                fillProblems.push_back("store fill " + s.label + ": " +
                                       s.error);
        }

        uint64_t bytes = 0, files = 0;
        for (const auto &e : std::filesystem::directory_iterator(store)) {
            bytes += e.file_size();
            ++files;
        }
        storeBytesPerCell =
            ratio(static_cast<double>(bytes), static_cast<double>(files));
        return work;
    }

    void
    round(Round &r) override
    {
        // One round asks for every cell kPasses times, each pass in an
        // order fixed by the seed and the round, so a round lasts long
        // enough to time.
        requests.clear();
        for (size_t pass = 0; pass < kPasses; ++pass) {
            std::vector<size_t> order(cells.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            shuffle(order, Rng::split(Rng::split(opt.seed, r.index), pass));
            requests.insert(requests.end(), order.begin(), order.end());
        }
        r.cells.resize(requests.size());
        sweep::parallelFor(
            requests.size(),
            [&](size_t n) {
                const size_t i = requests[n];
                CellSample &s = r.cells[n];
                s.key = fill[i].key;
                s.label = fill[i].label;
                size_t fromDisk = 0, computed = 0;
                timeCell(s, r.start, [&] {
                    SpanScope span(s, "sweep", "request", r.traced,
                                   r.start);
                    std::unique_ptr<sweep::SweepEngine> eng;
                    {
                        SpanScope open(s, "sweep", "open", r.traced,
                                       r.start);
                        eng = std::make_unique<sweep::SweepEngine>(1, store);
                    }
                    {
                        SpanScope get(s, "sweep", "store_get", r.traced,
                                      r.start);
                        s.stats = eng->get(cells[i]);
                    }
                    fromDisk = eng->cellsFromDiskCache();
                    computed = eng->cellsComputed();
                });
                s.hasStats = true;
                if (r.traced) {
                    // The engine decodes inside get(); time one
                    // encode/decode pair of the same stats from here.
                    std::string json;
                    {
                        SpanScope enc(s, "sweep", "stats_json_encode",
                                      true, r.start);
                        json = sweep::statsToJson(s.stats);
                    }
                    CoreStats back;
                    SpanScope dec(s, "sweep", "stats_json_decode", true,
                                  r.start);
                    sweep::statsFromJson(json, back);
                }
                if (fromDisk != 1 || computed != 0) {
                    s.failed = true;
                    s.error = "request was simulated instead of served "
                              "from the store";
                }
            },
            opt.jobs);
    }

    void
    finishRound(Round &r) override
    {
        // Checked outside the timed round: the comparison costs about
        // as much as a request.
        for (size_t n = 0; n < r.cells.size(); ++n) {
            CellSample &s = r.cells[n];
            s.digest = statsDigest(s.stats);
            if (!s.failed &&
                !sweep::statsEqual(s.stats, fill[requests[n]].stats)) {
                s.failed = true;
                s.error = "served stats differ from what set-up wrote";
            }
        }
    }

    void
    layerMetrics(const std::vector<const Round *> &traced,
                 Metrics &out) override
    {
        CoreStats sum;
        for (const CellSample &c : fill)
            addStats(sum, c.stats);
        simulatedCountMetrics(sum, out);
        out["workload.build_ms"] = {1e3 * median(buildSeconds), "ms"};
        out["sweep.store_get_us"] = {
            1e6 * meanSpanSeconds(traced, "sweep", "store_get"), "us"};
        out["sweep.stats_json_encode_us"] = {
            1e6 * meanSpanSeconds(traced, "sweep", "stats_json_encode"),
            "us"};
        out["sweep.stats_json_decode_us"] = {
            1e6 * meanSpanSeconds(traced, "sweep", "stats_json_decode"),
            "us"};
        out["sweep.store_bytes_per_cell"] = {storeBytesPerCell, "bytes"};
    }

    std::vector<std::string>
    finalChecks() override
    {
        std::filesystem::remove_all(store);
        return fillProblems;
    }

  private:
    static constexpr size_t kPasses = 40;

    Options opt;
    std::vector<SweepCell> cells;
    std::vector<size_t> requests; //!< cell index per request of a round
    std::string store;
    std::vector<CellSample> fill;
    std::vector<double> buildSeconds;
    std::vector<std::string> fillProblems; //!< failed cells of every fill
    double storeBytesPerCell = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeStoreReplay(const Options &opt)
{
    return std::make_unique<StoreReplay>(opt);
}

} // namespace perfbench
