/**
 * @file
 * Core configuration: machine widths and sizes (paper Table 1) and the
 * technique knobs studied in the evaluation (§4.1.4): VP vs IR,
 * speculative vs non-speculative branch resolution (SB/NSB), multiple
 * vs single re-execution (ME/NME), 0/1-cycle VP-verification latency,
 * and IR early vs late validation (Figure 3).
 */

#ifndef VPIR_CORE_PARAMS_HH
#define VPIR_CORE_PARAMS_HH

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "bpred/bpred.hh"
#include "check/fault.hh"
#include "mem/cache.hh"
#include "reuse/reuse_buffer.hh"
#include "vp/vpt.hh"

namespace vpir
{

/** Redundancy-exploiting technique plugged into the pipeline. */
enum class Technique : uint8_t
{
    None,   //!< base superscalar
    VP,     //!< value prediction
    IR,     //!< instruction reuse
    Hybrid, //!< IR first, VP as the fallback (the paper's §1/§5
            //!< "possibly hybrid of VP and IR" future direction)
};

/** How branches with value-speculative operands are resolved (§3.2). */
enum class BranchResolution : uint8_t
{
    Speculative,    //!< SB: act as soon as the branch executes
    NonSpeculative, //!< NSB: act only once operands are non-speculative
};

/** Re-execution policy under value misprediction (§4.1.4). */
enum class ReexecPolicy : uint8_t
{
    Multiple, //!< ME: re-execute on every new input value
    Single,   //!< NME: re-execute once, after correct operands known
};

/** When IR validates results (Figure 3). */
enum class IrValidation : uint8_t
{
    Early, //!< at decode (real IR)
    Late,  //!< at execute (reuse hits act as correct value predictions)
};

/** Full machine + technique configuration. */
struct CoreParams
{
    // Table 1 machine.
    unsigned fetchWidth = 4;
    unsigned fetchQueueSize = 8;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 32;
    unsigned lsqEntries = 32;
    unsigned maxUnresolvedBranches = 8;
    unsigned dcachePorts = 2;

    CacheParams icache;
    CacheParams dcache;
    BpredParams bpred;

    // Technique under study.
    Technique technique = Technique::None;
    VptParams vpt;                 //!< scheme field selects Magic/LVP
    RbParams rb;
    BranchResolution branchRes = BranchResolution::Speculative;
    ReexecPolicy reexec = ReexecPolicy::Multiple;
    unsigned vpVerifyLatency = 0;  //!< 0 or 1 cycles (§4.1.4)
    IrValidation irValidation = IrValidation::Early;

    // Ablation knobs (not part of the paper's configurations).
    bool vpPredictResults = true;   //!< VP: predict register results
    bool vpPredictAddresses = true; //!< VP: predict load addresses

    // Run limits.
    uint64_t maxCycles = UINT64_MAX;
    uint64_t maxInsts = UINT64_MAX;

    /** Functional fast-forward before timing starts (the paper skips
     *  1-2.5B instructions this way, §4.1.5). */
    uint64_t warmupInsts = 0;

    // Hardening / self-verification knobs.

    /** Replay every retired instruction on an independent functional
     *  machine and panic on any architectural divergence. */
    bool checkRetire = false;

    /** Cross-check reuse-buffer hits against the oracle execution at
     *  dispatch (a simulator self-test, not hardware). Turned off to
     *  model hardware that trusts its RB, e.g. under fault injection
     *  where escapes must instead be caught by the retire checker. */
    bool irOracleCheck = true;

    /** Audit pipeline invariants every cycle (instruction
     *  conservation, ROB/LSQ occupancy bounds, the scheduler's sets,
     *  links and counters, no commit with an unvalidated prediction,
     *  periodic RB/VPT entry sanity) and panic at the cycle of first
     *  corruption. */
    bool auditInvariants = false;

    /** Panic with a pipeline dump if no instruction commits for this
     *  many cycles (0 disables the watchdog). */
    uint64_t watchdogCycles = 0;

    /**
     * Drain the pipeline to a quiesced commit boundary every this many
     * committed instructions (0 disables draining). The drain bubbles
     * perturb timing, so the interval is part of the simulated machine:
     * it is hashed into the cell key, and a run resumed from a
     * checkpoint is byte-identical to an uninterrupted run at the same
     * interval. Checkpoint *persistence* additionally requires
     * VPIR_CKPT_DIR (sim/checkpoint.hh).
     */
    uint64_t ckptInsts = 0;

    /** Deterministic fault injection into VPT / reuse buffer. */
    FaultPlan faults;

    /**
     * Panic, naming the field and the rule it breaks, unless every
     * forEachParamField() row lies within its [lo, hi] and every
     * table's geometry can be indexed: power-of-two predictor tables
     * and cache lines, a history no longer than the predictor index,
     * and a power-of-two number of whole sets in each cache, the VPT
     * and the reuse buffer. The components assert the same geometry
     * only as internal guards.
     */
    void validate() const;
};

/** One row of the CoreParams field table, as forEachParamField()
 *  hands it to its visitor. Values travel as uint64_t: integers and
 *  enums as themselves, bools as 0/1, doubles as their bit pattern. */
struct ParamRow
{
    const char *name; //!< dotted path, e.g. "icache.sizeBytes"
    uint64_t lo;      //!< smallest value of a valid machine
    uint64_t hi;      //!< largest value of a valid machine
    uint64_t cap;     //!< largest value the field's type holds
};

/**
 * The CoreParams field table: every field once, in the order the
 * cell hash (sweep::hashParams), the params JSON and its schema
 * fingerprint fold over it, with the range validate() enforces. To
 * add a field, add the member and one row here (the sizeof guard
 * below trips when the struct grows, as a reminder). A new row moves
 * every cell key and the JSON schema fingerprint, so result-cache
 * files and repro bundles from older binaries are refused, not
 * misread.
 *
 * The visitor is fn(const ParamRow &, uint64_t &value); on a mutable
 * CoreParams the value is written back after each call.
 */
template <typename Params, typename Fn>
void
forEachParamField(Params &p, Fn &&fn)
{
    // One tripwire per struct: padding in CoreParams can absorb a
    // nested struct's change, so its own size is pinned too.
    static_assert(sizeof(CoreParams) == 240,
                  "CoreParams changed: add its row to forEachParamField()");
    static_assert(sizeof(CacheParams) == 20,
                  "CacheParams changed: add its row to forEachParamField()");
    static_assert(sizeof(BpredParams) == 16,
                  "BpredParams changed: add its row to forEachParamField()");
    static_assert(sizeof(VptParams) == 16,
                  "VptParams changed: add its row to forEachParamField()");
    static_assert(sizeof(RbParams) == 8,
                  "RbParams changed: add its row to forEachParamField()");
    static_assert(sizeof(FaultPlan) == 56,
                  "FaultPlan changed: add its row to forEachParamField()");

    auto row = [&fn](const char *name, auto &field, uint64_t lo,
                     uint64_t hi) {
        using T = std::remove_cvref_t<decltype(field)>;
        uint64_t u;
        uint64_t cap;
        if constexpr (std::is_same_v<T, double>) {
            std::memcpy(&u, &field, sizeof(u));
            cap = UINT64_MAX;
        } else if constexpr (std::is_enum_v<T>) {
            u = static_cast<uint64_t>(field);
            cap = hi; // the domain ends at the last enumerator
        } else {
            u = field;
            cap = std::numeric_limits<T>::max();
        }
        fn(ParamRow{name, lo, hi, cap}, u);
        if constexpr (!std::is_const_v<Params>) {
            if constexpr (std::is_same_v<T, double>)
                std::memcpy(&field, &u, sizeof(u));
            else
                field = static_cast<T>(u);
        }
    };
    constexpr uint64_t ANY = UINT64_MAX;
    auto last = [](auto enumerator) {
        return static_cast<uint64_t>(enumerator);
    };
#define VPIR_PARAM(field, lo, hi) row(#field, p.field, lo, hi)
    VPIR_PARAM(fetchWidth, 1, ANY);
    VPIR_PARAM(fetchQueueSize, 1, ANY);
    VPIR_PARAM(dispatchWidth, 1, ANY);
    VPIR_PARAM(issueWidth, 1, ANY);
    VPIR_PARAM(commitWidth, 1, ANY);
    VPIR_PARAM(robEntries, 1, ANY);
    VPIR_PARAM(lsqEntries, 1, ANY);
    VPIR_PARAM(maxUnresolvedBranches, 1, ANY);
    VPIR_PARAM(dcachePorts, 1, ANY);
    VPIR_PARAM(icache.sizeBytes, 0, ANY);
    VPIR_PARAM(icache.ways, 1, ANY);
    VPIR_PARAM(icache.lineBytes, 0, ANY);
    VPIR_PARAM(icache.hitLatency, 0, ANY);
    VPIR_PARAM(icache.missLatency, 0, ANY);
    VPIR_PARAM(dcache.sizeBytes, 0, ANY);
    VPIR_PARAM(dcache.ways, 1, ANY);
    VPIR_PARAM(dcache.lineBytes, 0, ANY);
    VPIR_PARAM(dcache.hitLatency, 0, ANY);
    VPIR_PARAM(dcache.missLatency, 0, ANY);
    VPIR_PARAM(bpred.historyBits, 0, 31);
    VPIR_PARAM(bpred.tableEntries, 0, ANY);
    VPIR_PARAM(bpred.btbEntries, 0, ANY);
    VPIR_PARAM(bpred.rasEntries, 1, ANY);
    VPIR_PARAM(technique, 0, last(Technique::Hybrid));
    VPIR_PARAM(vpt.entries, 0, ANY);
    VPIR_PARAM(vpt.ways, 1, ANY);
    VPIR_PARAM(vpt.scheme, 0, last(VpScheme::Lvp));
    VPIR_PARAM(vpt.confidenceThreshold, 0, Vpt::Confidence::max());
    VPIR_PARAM(rb.entries, 0, ANY);
    VPIR_PARAM(rb.ways, 1, ANY);
    VPIR_PARAM(branchRes, 0, last(BranchResolution::NonSpeculative));
    VPIR_PARAM(reexec, 0, last(ReexecPolicy::Single));
    VPIR_PARAM(vpVerifyLatency, 0, ANY);
    VPIR_PARAM(irValidation, 0, last(IrValidation::Late));
    VPIR_PARAM(vpPredictResults, 0, 1);
    VPIR_PARAM(vpPredictAddresses, 0, 1);
    VPIR_PARAM(maxCycles, 0, ANY);
    VPIR_PARAM(maxInsts, 0, ANY);
    VPIR_PARAM(warmupInsts, 0, ANY);
    VPIR_PARAM(checkRetire, 0, 1);
    VPIR_PARAM(irOracleCheck, 0, 1);
    VPIR_PARAM(auditInvariants, 0, 1);
    VPIR_PARAM(watchdogCycles, 0, ANY);
    VPIR_PARAM(ckptInsts, 0, ANY);
    VPIR_PARAM(faults.seed, 0, ANY);
    VPIR_PARAM(faults.vptValueRate, 0, ANY);
    VPIR_PARAM(faults.vptConfRate, 0, ANY);
    VPIR_PARAM(faults.rbOperandRate, 0, ANY);
    VPIR_PARAM(faults.rbResultRate, 0, ANY);
    VPIR_PARAM(faults.rbLinkRate, 0, ANY);
    VPIR_PARAM(faults.rbDropInvRate, 0, ANY);
#undef VPIR_PARAM
}

} // namespace vpir

#endif // VPIR_CORE_PARAMS_HH
