/**
 * @file
 * Lockstep architectural checker.
 *
 * The OoO core executes functionally along the *fetched* path with an
 * undo journal, so a simulator bug (or an injected reuse-buffer fault
 * that slips past early validation) can silently commit a wrong value
 * into architectural state. The checker closes that hole: it owns a
 * completely independent EmuState, stepped by a journal-free
 * FuncEngine, and replays every instruction the core RETIRES, in
 * retirement order, comparing
 *
 *   - path continuity (the retired PC must be where the independent
 *     machine's PC points),
 *   - register results (rd and rd2),
 *   - the next PC of control transfers,
 *   - effective address and stored value of memory operations,
 *
 * against what the core committed. On the first mismatch it emits a
 * structured divergence report — cycle, sequence number, PC,
 * disassembly, expected vs actual values, and the last 32 retired
 * instructions — and calls panic(), which a PanicThrowScope turns
 * into a catchable SimError.
 *
 * The checker shares nothing mutable with the core's emulation state:
 * it reads the core's immutable predecoded program, and starts from a
 * copy-on-write clone of the same warm snapshot, so the first write
 * either machine makes to a page clones it. That independence is the
 * point. (A wrong entry in the shared table would fool both machines
 * alike; the Predecode.* tests pin the table against the ISA's decode
 * definitions instead.)
 */

#ifndef VPIR_CHECK_CHECKER_HH
#define VPIR_CHECK_CHECKER_HH

#include <array>
#include <cstdint>

#include "common/ckpt_io.hh"
#include "emu/engine.hh"
#include "emu/state.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Everything the core knows about one retiring instruction. */
struct Retired
{
    uint64_t seq = 0;        //!< dynamic sequence number
    uint64_t cycle = 0;      //!< commit cycle
    Addr pc = 0;
    Instr inst;
    uint64_t result = 0;     //!< value committed to rd
    uint64_t result2 = 0;    //!< value committed to rd2
    Addr nextPC = 0;         //!< PC the core followed after this instr
    Addr memAddr = 0;        //!< effective address (memory ops)
    uint64_t storeValue = 0; //!< value stored (stores)
};

class LockstepChecker
{
  public:
    /**
     * @param program  The (immutable) predecoded program, shared with
     *                 the core by reference; it must outlive the
     *                 checker.
     * @param warm     The post-warmup snapshot the core starts from,
     *                 so both machines start the checked region
     *                 aligned. Cloned copy-on-write: the checker still
     *                 shares no *mutable* state with the core — both
     *                 write-fault private pages.
     */
    LockstepChecker(const DecodedProgram &program, const EmuSnapshot &warm);

    /** Cross-validate one retired instruction; panics on divergence. */
    void onRetire(const Retired &r);

    uint64_t checkedInsts() const { return checked; }

    /** Checkpoint the independent machine (its architectural state,
     *  PC, halt flag) plus the checked count and divergence-report
     *  history ring. */
    void serialize(CkptWriter &w) const;
    /** Restore serialize()d state. */
    bool deserialize(CkptReader &r);

  private:
    [[noreturn]] void diverge(const Retired &r, const std::string &what);
    std::string history() const;

    EmuState state;
    FuncEngine engine;
    uint64_t checked = 0;

    static constexpr size_t histSize = 32;
    std::array<Retired, histSize> ring{};
    size_t ringCount = 0;
};

} // namespace vpir

#endif // VPIR_CHECK_CHECKER_HH
