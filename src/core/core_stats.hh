/**
 * @file
 * Raw event counters collected by the core, covering every quantity
 * the paper's tables and figures report. Benches derive percentages
 * and normalised series from these.
 */

#ifndef VPIR_CORE_CORE_STATS_HH
#define VPIR_CORE_CORE_STATS_HH

#include <cstdint>
#include <type_traits>

#include "stats/stats.hh"

namespace vpir
{

/** Everything a single simulation run counts. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t committedInsts = 0;
    uint64_t committedMemOps = 0;
    uint64_t committedLoads = 0;
    uint64_t committedStores = 0;

    /** Distinct dynamic instructions that occupied an FU at least
     *  once, wrong path included (Table 5 "Inst Executed"). */
    uint64_t executedInsts = 0;
    /** Executed instructions later squashed by a control squash. */
    uint64_t squashedExecuted = 0;
    /** Squashed-then-reused work recovered through the RB (Table 5). */
    uint64_t squashedRecovered = 0;

    /** Control squash events and their classification (Table 4). */
    uint64_t branchSquashes = 0;
    uint64_t spuriousSquashes = 0; //!< due to value-speculative operands

    /** Conditional branch direction accuracy (Table 2). */
    uint64_t condBranches = 0;
    uint64_t condMispredicted = 0;
    /** Return target accuracy (Table 2). */
    uint64_t returns = 0;
    uint64_t returnMispredicted = 0;

    /** Branch resolution latency, decode -> final action (Figure 4),
     *  accumulated over committed resolvable control instructions. */
    uint64_t branchResLatSum = 0;
    uint64_t branchResCount = 0;

    /** Resource contention (Figure 5): execution resources denied to
     *  ready instructions over total requests. */
    uint64_t resourceRequests = 0;
    uint64_t resourceDenied = 0;

    /** Committed instructions by number of executions, buckets
     *  1,2,3,>=4 (Table 6); non-executing (reused) insts excluded. */
    uint64_t execCountHist[4] = {0, 0, 0, 0};

    /** IR rates (Table 3), counted at commit. */
    uint64_t reusedResults = 0;
    uint64_t reusedAddrs = 0;
    /** Reused control instructions (resolve at decode). */
    uint64_t reusedControl = 0;
    /** Committed resolvable control instructions. */
    uint64_t resolvableControl = 0;

    /** VP rates (Table 3), counted at commit. */
    uint64_t vpResultPredicted = 0;
    uint64_t vpResultCorrect = 0;
    uint64_t vpResultWrong = 0;
    uint64_t vpAddrPredicted = 0;
    uint64_t vpAddrCorrect = 0;
    uint64_t vpAddrWrong = 0;

    /** Value misprediction recovery events (any re-execution cause). */
    uint64_t valueMispredictEvents = 0;

    /** Cache behaviour. */
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;

    /** Hardening: retired instructions cross-validated by the
     *  lockstep checker (0 when the checker is off). */
    uint64_t checkedInsts = 0;

    /** Hardening: injected faults by site (see FaultPlan). */
    uint64_t faultsVptValue = 0;
    uint64_t faultsVptConf = 0;
    uint64_t faultsRbOperand = 0;
    uint64_t faultsRbResult = 0;
    uint64_t faultsRbLink = 0;
    uint64_t faultsRbDropInv = 0;

    bool haltedCleanly = false;

    double ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) /
                        static_cast<double>(cycles)
                      : 0.0;
    }

    /** Export every field, plus the ipc, branch_res_lat_avg and
     *  resource_contention ratios, into a named StatSet. */
    void exportTo(StatSet &out) const;
};

/**
 * The CoreStats field table: every field once, in serialization
 * order, as fn(jsonName, statName, field). The JSON name is the
 * member's name and keys the result-cache JSON, checkpoints and the
 * schema fingerprint; the snake_case StatSet name keys exportTo().
 * Counters are visited as uint64_t, haltedCleanly (last) as bool; see
 * isStatFlag. To add a counter, add the member and one row here: its
 * JSON, checkpoint, fingerprint and StatSet forms all follow.
 */
template <typename Stats, typename Fn>
void
forEachStatRow(Stats &st, Fn &&fn)
{
#define VPIR_STAT(member, stat_name) fn(#member, stat_name, st.member)
    VPIR_STAT(cycles, "cycles");
    VPIR_STAT(committedInsts, "committed_insts");
    VPIR_STAT(committedMemOps, "committed_mem_ops");
    VPIR_STAT(committedLoads, "committed_loads");
    VPIR_STAT(committedStores, "committed_stores");
    VPIR_STAT(executedInsts, "executed_insts");
    VPIR_STAT(squashedExecuted, "squashed_executed");
    VPIR_STAT(squashedRecovered, "squashed_recovered");
    VPIR_STAT(branchSquashes, "branch_squashes");
    VPIR_STAT(spuriousSquashes, "spurious_squashes");
    VPIR_STAT(condBranches, "cond_branches");
    VPIR_STAT(condMispredicted, "cond_mispredicted");
    VPIR_STAT(returns, "returns");
    VPIR_STAT(returnMispredicted, "return_mispredicted");
    VPIR_STAT(branchResLatSum, "branch_res_lat_sum");
    VPIR_STAT(branchResCount, "branch_res_count");
    VPIR_STAT(resourceRequests, "resource_requests");
    VPIR_STAT(resourceDenied, "resource_denied");
    fn("execCountHist0", "exec_count_1", st.execCountHist[0]);
    fn("execCountHist1", "exec_count_2", st.execCountHist[1]);
    fn("execCountHist2", "exec_count_3", st.execCountHist[2]);
    fn("execCountHist3", "exec_count_4", st.execCountHist[3]);
    VPIR_STAT(reusedResults, "reused_results");
    VPIR_STAT(reusedAddrs, "reused_addrs");
    VPIR_STAT(reusedControl, "reused_control");
    VPIR_STAT(resolvableControl, "resolvable_control");
    VPIR_STAT(vpResultPredicted, "vp_result_predicted");
    VPIR_STAT(vpResultCorrect, "vp_result_correct");
    VPIR_STAT(vpResultWrong, "vp_result_wrong");
    VPIR_STAT(vpAddrPredicted, "vp_addr_predicted");
    VPIR_STAT(vpAddrCorrect, "vp_addr_correct");
    VPIR_STAT(vpAddrWrong, "vp_addr_wrong");
    VPIR_STAT(valueMispredictEvents, "value_mispredict_events");
    VPIR_STAT(icacheAccesses, "icache_accesses");
    VPIR_STAT(icacheMisses, "icache_misses");
    VPIR_STAT(dcacheAccesses, "dcache_accesses");
    VPIR_STAT(dcacheMisses, "dcache_misses");
    VPIR_STAT(checkedInsts, "checked_insts");
    VPIR_STAT(faultsVptValue, "faults_vpt_value");
    VPIR_STAT(faultsVptConf, "faults_vpt_conf");
    VPIR_STAT(faultsRbOperand, "faults_rb_operand");
    VPIR_STAT(faultsRbResult, "faults_rb_result");
    VPIR_STAT(faultsRbLink, "faults_rb_link");
    VPIR_STAT(faultsRbDropInv, "faults_rb_dropinv");
    VPIR_STAT(haltedCleanly, "halted_cleanly");
#undef VPIR_STAT
}

/** True for the table's one bool row (haltedCleanly). */
template <typename Field>
constexpr bool isStatFlag = std::is_same_v<std::remove_cvref_t<Field>, bool>;

/**
 * Schema fingerprint of the stats table (fnv::schemaFingerprint over
 * the JSON names). Result-cache files, repro bundles and checkpoints
 * all carry it, and each refuses a payload whose fingerprint differs
 * instead of misparsing it field by field.
 */
uint64_t statsSchemaFingerprint();

} // namespace vpir

#endif // VPIR_CORE_CORE_STATS_HH
