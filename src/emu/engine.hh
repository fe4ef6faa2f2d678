/**
 * @file
 * The non-speculative functional engine, and the warm snapshots it
 * builds.
 *
 * Every run that only ever moves forward along the architectural path
 * — the functional fast-forward before a timing window, the lockstep
 * checker's reference machine, the redundancy limit study, the fuzz
 * driver's end-state replay — executes on a FuncEngine. It evaluates
 * each instruction with evalInstrWith() (emu/semantics.hh), the one
 * definition of the ISA's semantics, and writes registers and memory
 * directly:
 *
 *   - no undo journal: nothing it executes is ever rolled back, so it
 *     records no old values, retires nothing, and leaves the state's
 *     journal marks where they were;
 *   - no per-step result record: callers that want an instruction's
 *     outcome ask step() for it, run() produces none;
 *   - the program's one predecoded table (DecodedProgram,
 *     isa/decode.hh), shared with the timing core: operand and
 *     destination registers, access size and halt/validity were
 *     resolved once per text word when the table was built, and an
 *     absent register is r0, so the loop reads and writes registers
 *     without a branch;
 *   - the state's read and write page caches, so copy-on-write stays
 *     intact (the first write to a page shared with a snapshot clones
 *     it, later writes go to the clone).
 *
 * The timing core's speculative path keeps the journaled Emulator
 * (emu/executor.hh). An engine must not run over a state with live
 * speculation in its journal: a later rollback would undo the
 * engine's writes in the wrong order.
 */

#ifndef VPIR_EMU_ENGINE_HH
#define VPIR_EMU_ENGINE_HH

#include <cstdint>

#include "asm/assembler.hh"
#include "emu/executor.hh"
#include "emu/state.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

class FuncEngine
{
  public:
    /** An engine running @p program over @p state, which the caller
     *  has loaded (or copied from a snapshot); the PC starts at the
     *  program's entry. Both must outlive the engine (so a temporary
     *  table is refused). */
    FuncEngine(const DecodedProgram &program, EmuState &state);
    FuncEngine(DecodedProgram &&, EmuState &) = delete;

    /**
     * Execute up to @p max_insts instructions, stopping after one that
     * halts (HALT, or a PC off the text segment). A halted engine
     * executes nothing. @return the instructions executed, the halting
     * one included.
     */
    uint64_t run(uint64_t max_insts);

    /**
     * Execute the instruction at the PC and report its outcome and
     * operand values. @return the word it executed, or null when it
     * halts; @p out and @p src_vals are then zero and the PC stays on
     * it.
     */
    const DecodedInst *step(SemOut &out, uint64_t (&src_vals)[2]);

    Addr pc() const { return curPC; }
    void setPC(Addr pc) { curPC = pc; }
    /** Sticky halt latch: set by a halting step, cleared only here. */
    bool halted() const { return isHalted; }
    void setHalt(bool h) { isHalted = h; }

    EmuState &state() { return st; }

  private:
    template <bool REPORT>
    const DecodedInst *exec(SemOut &out, uint64_t *src_vals);

    const DecodedProgram &code;
    EmuState &st;
    Addr curPC;
    bool isHalted = false;
};

/**
 * Frozen post-warmup machine state: the program image loaded and the
 * first warmupInsts instructions executed functionally. Built once per
 * (program, warmup) by the warm-start cache, or privately by a core
 * started without one, and cloned copy-on-write (EmuState's copy is
 * O(pages)) into every core and lockstep checker that starts from the
 * same point. Immutable after construction.
 */
struct EmuSnapshot
{
    EmuState state;         //!< post-load, post-warmup architecture
    Addr pc = 0;            //!< where the warmup stopped
    bool halted = false;    //!< warmup consumed the whole program
    uint64_t warmupInsts = 0; //!< requested warmup (key sanity check)
};

/** Load @p program and fast-forward @p warmupInsts instructions on a
 *  FuncEngine (paper §4.1.5); the only warmup path. */
EmuSnapshot makeWarmSnapshot(const Program &program, uint64_t warmupInsts);

} // namespace vpir

#endif // VPIR_EMU_ENGINE_HH
