/**
 * @file
 * Shared plumbing of the benchmark program: options, the per-cell
 * sample record each timed round fills, in-memory trace spans, the
 * workload interface, and small statistics helpers.
 *
 * Host time (what the simulator takes to run) is measured here with
 * steady_clock and getrusage. Simulated quantities (cycles, committed
 * instructions, predictor outcomes) come from the simulator's
 * CoreStats and are exact and deterministic.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/core_stats.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;        //!< self-test size: every workload in seconds
    unsigned jobs = 1;        //!< pool worker threads per round
    std::string workdir;      //!< scratch space inside the checkout
    std::string reference;    //!< recorded stats digests to check against
    std::string record;       //!< write digests here instead of checking
    std::string traceOut;     //!< span dump path for traced runs
};

/**
 * One trace span: a call from the benchmark into a simulator layer,
 * or a phase the sweep engine reports per cell (CellTiming setup/run).
 * Times are seconds from the start of the round.
 */
struct Span
{
    const char *layer = ""; //!< src/ module: "sweep", "core", ...
    const char *op = "";    //!< the call or phase within the layer
    int parent = -1; //!< index of the enclosing span in the same cell
    double t0 = 0.0;
    double t1 = 0.0;
};

/** What one cell of a timed round did, timed by the benchmark. */
struct CellSample
{
    uint64_t key = 0;          //!< sweep cell hash (fuzz: program seed)
    std::string label;         //!< "program/config", for reports
    double start = 0.0;        //!< seconds from round start
    double end = 0.0;
    unsigned worker = 0;       //!< pool thread that ran the cell
    uint64_t detailedInsts = 0;   //!< committed by a timing core here
    uint64_t functionalInsts = 0; //!< executed by the functional emulator
    uint64_t digest = 0;       //!< FNV-1a of the simulated output
    bool failed = false;
    std::string error;

    bool hasStats = false;     //!< simulated stats below are valid
    vpir::CoreStats stats;
    bool hasTiming = false;    //!< engine phase split below is valid
    vpir::sweep::CellTiming timing;

    std::vector<Span> spans;   //!< filled in traced rounds only
    int openSpan = -1;

    double latency() const { return end - start; }
};

/** One fixed-size batch of a workload. */
struct Round
{
    size_t index = 0; //!< position in the run; seeds the round's order
    bool traced = false;
    std::chrono::steady_clock::time_point start;
    double wall = 0.0; //!< host seconds
    double cpu = 0.0;  //!< host CPU seconds (user + system, all threads)
    std::vector<CellSample> cells;
};

/** Seconds on the steady clock since @p t0. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/**
 * Records a span around a call into a layer, nested under whatever
 * span of the same cell is open. A no-op when @p on is false, so the
 * untraced path pays one branch.
 */
class SpanScope
{
  public:
    SpanScope(CellSample &cell, const char *layer, const char *op,
              bool on, std::chrono::steady_clock::time_point roundStart);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    CellSample &cell;
    std::chrono::steady_clock::time_point base;
    int index = -1;
    int saved = -1;
};

/** Append a finished span (e.g. a CellTiming phase) under @p parent. */
int addSpan(CellSample &cell, const char *layer, const char *op, int parent,
            double t0, double t1);

/** Mean duration in seconds of the @p op spans of @p layer. */
double meanSpanSeconds(const std::vector<const Round *> &rounds,
                       const char *layer, const char *op);

/** Index of the calling pool thread, stable within one parallelFor. */
unsigned workerIndex();

/** Time @p fn on a pool worker and fill start/end/worker of @p cell. */
template <typename Fn>
void
timeCell(CellSample &cell, std::chrono::steady_clock::time_point roundStart,
         Fn &&fn)
{
    cell.worker = workerIndex();
    cell.start = secondsSince(roundStart);
    fn();
    cell.end = secondsSince(roundStart);
}

/** Per-layer self time in seconds: span duration minus its children. */
std::map<std::string, double> layerSelfSeconds(const Round &r);

/** Metric name -> (value, unit), in insertion-independent order. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Base of every workload. setup() must rebuild from scratch. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Simulation done while setting up (store-replay's fill). */
    struct SetupWork
    {
        uint64_t detailedInsts = 0;
        double seconds = 0.0; //!< host wall time of that simulation
    };

    virtual SetupWork setup() = 0;

    /** Untimed preparation before each round (cache priming). */
    virtual void prepareRound() {}

    /** Run one batch; fill @p r.cells. */
    virtual void round(Round &r) = 0;

    /** Post-round bookkeeping and cleanup (untimed). */
    virtual void finishRound(Round &) {}

    /** Workload-specific per-layer metrics from traced rounds. */
    virtual void layerMetrics(const std::vector<const Round *> &traced,
                              Metrics &out) = 0;

    /** Extra correctness problems found after all rounds. */
    virtual std::vector<std::string> finalChecks() { return {}; }
};

/**
 * Every distinct (program, configuration) cell behind the Table 2-6,
 * Figure 3-7, ablation and hybrid harnesses at @p budget committed
 * instructions, with the harnesses' environment knobs applied.
 */
std::vector<vpir::sweep::SweepCell> paperSweepCells(uint64_t budget);

std::unique_ptr<Workload> makePaperSweep(const Options &opt);
std::unique_ptr<Workload> makeFastForward(const Options &opt);
std::unique_ptr<Workload> makeFuzzCampaign(const Options &opt);
std::unique_ptr<Workload> makeStoreReplay(const Options &opt);

// ------------------------------------------------------------- helpers

/** FNV-1a over a byte string. */
uint64_t fnv1a(const std::string &s);

/** Digest of a cell's simulated stats (FNV-1a of statsToJson). */
uint64_t statsDigest(const vpir::CoreStats &st);

/** Field-wise sum of every counter. */
void addStats(vpir::CoreStats &dst, const vpir::CoreStats &src);

/** Deterministic Fisher-Yates shuffle of @p v from @p seed. */
template <typename T>
void shuffle(std::vector<T> &v, uint64_t seed);

/** Median; 0 for an empty vector. */
double median(std::vector<double> v);

/** Percentile by linear interpolation, q in [0, 1]. */
double percentile(std::vector<double> v, double q);

/** a / b, or 0 when b is 0. */
double ratio(double a, double b);

/** Simulated-count per-layer metrics over the summed stats. */
void simulatedCountMetrics(const vpir::CoreStats &sum, Metrics &out);

/**
 * Per-layer metrics derived from the sweep engine's per-cell phase
 * split (CellTiming setup/run) and scheduling profile of the cells
 * that were simulated in @p traced rounds.
 */
void engineCellMetrics(const std::vector<const Round *> &traced,
                       Metrics &out);

/**
 * Run @p cell through @p eng (an inline engine whose get() the pool's
 * threads call concurrently, each running its cell on its own thread),
 * timing it into @p s. Call attachEngineRecords() after the round.
 */
void runEngineCell(vpir::sweep::SweepEngine &eng,
                   const vpir::sweep::SweepCell &cell, CellSample &s,
                   const Round &r);

/**
 * After a round: copy each cell's CellTiming and CellFailure from the
 * engine into the samples (aligned with @p cells), mark cells that
 * neither committed their budget nor halted cleanly, and add the
 * engine's setup/run phase split as child spans when traced.
 */
void attachEngineRecords(const vpir::sweep::SweepEngine &eng,
                         const std::vector<vpir::sweep::SweepCell> &cells,
                         Round &r);

// ------------------------------------------------------- template defs

template <typename T>
void
shuffle(std::vector<T> &v, uint64_t seed)
{
    vpir::Rng rng(seed, /*stream=*/0x5bd1e995);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
