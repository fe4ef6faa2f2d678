/**
 * @file
 * Branch prediction unit: gshare direction predictor (McFarling),
 * branch target buffer for indirect jumps, and a return address stack.
 *
 * Table 1: gshare with a 10-bit global history register and a 16K
 * entry 2-bit counter table. History is updated speculatively at fetch
 * and repaired on squash via per-branch checkpoints; the RAS is
 * checkpointed the same way, which is how the paper's near-100% return
 * prediction rates (Table 2) are achievable in the presence of wrong
 * path fetch.
 */

#ifndef VPIR_BPRED_BPRED_HH
#define VPIR_BPRED_BPRED_HH

#include <cstdint>
#include <vector>

#include "common/ckpt_io.hh"
#include "common/sat_counter.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Gshare configuration. The constructor rejects (panics on) tables
 *  that are not powers of two, an empty RAS, and a history longer than
 *  the table index or than 31 bits. */
struct BpredParams
{
    unsigned historyBits = 10;
    unsigned tableEntries = 16 * 1024;
    unsigned btbEntries = 2048;
    unsigned rasEntries = 16;
};

/**
 * Preallocated storage for speculative-state snapshots: one history
 * register, RAS top index and full RAS copy (rasEntries addresses) per
 * slot, all in flat arrays sized once at construction. Taking or
 * restoring a snapshot copies into or out of a slot and never touches
 * the allocator. The core keeps one slot per in-flight control
 * instruction (see DESIGN.md §14); tests use a slab of a few slots.
 */
class BpredCheckpointSlab
{
  public:
    BpredCheckpointSlab(size_t slots, unsigned ras_entries)
        : rasEntries(ras_entries),
          ghr(slots, 0),
          rasTop(slots, 0),
          ras(slots * ras_entries, 0)
    {
    }

    size_t slots() const { return ghr.size(); }

  private:
    friend class BranchPredUnit;
    unsigned rasEntries = 0;
    std::vector<uint32_t> ghr;
    std::vector<uint32_t> rasTop;
    std::vector<Addr> ras; //!< [slot * rasEntries + i]
};

/** What fetch learns about a control instruction. */
struct BpredLookup
{
    bool predTaken = false;   //!< predicted direction
    Addr predTarget = 0;      //!< predicted next PC when taken
    uint32_t ghrUsed = 0;     //!< history value the counters were read with
    bool fromRas = false;     //!< target came from the return stack
};

/** The full branch prediction unit. */
class BranchPredUnit
{
  public:
    explicit BranchPredUnit(const BpredParams &params = BpredParams());

    /**
     * Predict a fetched control instruction and speculatively update
     * history/RAS. Non-control instructions must not be passed here.
     */
    BpredLookup predict(Addr pc, const Instr &inst);

    /** A checkpoint slab with @p slots slots sized for this unit's
     *  RAS (allocates; call at construction time only). */
    BpredCheckpointSlab
    makeCheckpointSlab(size_t slots) const
    {
        return BpredCheckpointSlab(slots, params.rasEntries);
    }

    /** Snapshot speculative state into @p slot of @p slab (call before
     *  predict()). */
    void checkpoint(BpredCheckpointSlab &slab, size_t slot) const;

    /** Restore the speculative state saved in @p slot of @p slab after
     *  a squash. */
    void restore(const BpredCheckpointSlab &slab, size_t slot);

    /**
     * Train the direction counters and BTB with the resolved outcome.
     * @param ghr_used History value recorded by the earlier predict().
     */
    void update(Addr pc, const Instr &inst, bool taken, Addr target,
                uint32_t ghr_used);

    /** Direction-table index for a pc/history pair (exposed for tests). */
    uint32_t tableIndex(Addr pc, uint32_t ghr) const;

    /**
     * Squash repair: after restore(), re-apply the squashing branch's
     * own effect on the speculative state with its (re)computed
     * outcome.
     */
    void forceHistoryBit(bool taken);
    /** Squash repair for a surviving call: redo its RAS push. */
    void redoCall(Addr ret) { rasPush(ret); }
    /** Squash repair for a surviving return: redo its RAS pop. */
    void redoReturn() { rasPop(); }

    /** Checkpoint counters, history, BTB, and RAS. */
    void serialize(CkptWriter &w) const;
    /** Restore serialize()d state; false on geometry mismatch. */
    bool deserialize(CkptReader &r);

  private:
    BpredParams params;
    /** Index math derived from params once, at construction. */
    unsigned tableBits;
    unsigned btbBits;
    uint32_t histMask;
    using Counter = SatCounter<2>;
    std::vector<Counter> table;
    uint32_t ghr;

    struct BtbEntry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
    };
    std::vector<BtbEntry> btb;

    std::vector<Addr> ras;
    unsigned rasTop; //!< index of next push slot

    void rasPush(Addr ret);
    Addr rasPop();
    uint32_t btbIndex(Addr pc) const;
};

} // namespace vpir

#endif // VPIR_BPRED_BPRED_HH
