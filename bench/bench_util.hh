/**
 * @file
 * Metrics the experiment tables derive from a cell's stats: prediction
 * rates, speedup, branch resolution latency and resource contention.
 */

#ifndef VPIR_BENCH_BENCH_UTIL_HH
#define VPIR_BENCH_BENCH_UTIL_HH

// Wider than this header needs: perfbench/src/paper_sweep.cc, which
// may not change, reaches the simulator API through these includes.
#include "sim/simulator.hh"
#include "stats/table.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace bench
{

/** Conditional-branch direction prediction rate (%). */
inline double
brPredRate(const CoreStats &st)
{
    return st.condBranches
               ? 100.0 * (1.0 - static_cast<double>(st.condMispredicted) /
                                    static_cast<double>(st.condBranches))
               : 0.0;
}

/** Return target prediction rate (%). */
inline double
retPredRate(const CoreStats &st)
{
    return st.returns
               ? 100.0 * (1.0 - static_cast<double>(st.returnMispredicted) /
                                    static_cast<double>(st.returns))
               : 0.0;
}

/** Speedup of @p s over @p base (IPC ratio). */
inline double
speedup(const CoreStats &s, const CoreStats &base)
{
    return base.ipc() > 0.0 ? s.ipc() / base.ipc() : 0.0;
}

/** Mean branch resolution latency in cycles. */
inline double
branchResLat(const CoreStats &st)
{
    return st.branchResCount
               ? static_cast<double>(st.branchResLatSum) /
                     static_cast<double>(st.branchResCount)
               : 0.0;
}

/** Resource contention ratio (denied / requested). */
inline double
contention(const CoreStats &st)
{
    return st.resourceRequests
               ? static_cast<double>(st.resourceDenied) /
                     static_cast<double>(st.resourceRequests)
               : 0.0;
}

} // namespace bench
} // namespace vpir

#endif // VPIR_BENCH_BENCH_UTIL_HH
