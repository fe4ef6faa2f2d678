/**
 * @file
 * The experiment manifest: one entry per paper table and figure
 * (Tables 1-6, Figures 3-10) plus the ablation and the hybrid
 * extension. An entry lists each simulated cell once, as (programs,
 * label, machine), and prints its tables from the cells' stats or
 * from the redundancy limit study. One runner (bench_main.cc) runs any
 * entry; CMake builds it once per entry as bench_<name>.
 */

#ifndef VPIR_BENCH_EXPERIMENTS_HH
#define VPIR_BENCH_EXPERIMENTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/core_stats.hh"
#include "core/params.hh"
#include "redundancy/redundancy.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace bench
{

/** One machine run on some programs; its stats are read back by
 *  (program, label). */
struct CellSpec
{
    std::vector<std::string> programs;
    std::string label;
    CoreParams params;
};

/** What an experiment's print() reads. */
struct Results
{
    uint64_t instLimit = 0; //!< committed-instruction budget per cell
    /** Every cell's stats, by (program, label). */
    std::map<std::pair<std::string, std::string>, const CoreStats *> cells;
    /** Limit-study stats in workloadNames() order (limitStudy only). */
    std::vector<RedundancyStats> redundancy;

    /** Stats of the cell @p label on @p program; panics if absent. */
    const CoreStats &at(const std::string &program,
                        const std::string &label) const;
};

/** One table or figure. */
struct Experiment
{
    const char *name;  //!< "table3": the binary is bench_table3
    const char *title; //!< banner: "<title> — <what>"
    const char *what;
    std::vector<CellSpec> cells = {};
    bool limitStudy = false; //!< also run the redundancy limit study
    void (*print)(const Results &) = nullptr;
};

/** Every experiment, in the paper's order. */
const std::vector<Experiment> &experiments();

/** The experiment called @p name; panics if there is none. */
const Experiment &experiment(const std::string &name);

/** @p e's cells at the given budget and scale, one per (program,
 *  label), in manifest order. */
std::vector<sweep::SweepCell> sweepCells(const Experiment &e,
                                         uint64_t inst_limit,
                                         WorkloadScale scale);

} // namespace bench
} // namespace vpir

#endif // VPIR_BENCH_EXPERIMENTS_HH
