/**
 * @file
 * Instruction semantics and the timing core's speculative executor.
 *
 * Semantics are factored into a pure evaluator (evalInstr) that maps
 * operand values to results, so the out-of-order core can re-evaluate
 * instructions with *speculative* operand values: this is how branches
 * executed with wrong value-predicted inputs compute genuinely wrong
 * outcomes (the paper's spurious mispredictions). Both executors use
 * the one definition of the ISA's semantics in emu/semantics.hh.
 *
 * The Emulator executes along the core's fetched path, wrong paths
 * included, with every write journaled so a squash can undo it. It
 * holds no program: fetch resolves each PC to its word of the
 * program's one predecoded table (DecodedProgram, isa/decode.hh) and
 * hands that word to execAt(), so a dynamic instruction is looked up
 * once. Non-speculative runs use the journal-free FuncEngine instead
 * (emu/engine.hh), which reads the same table.
 */

#ifndef VPIR_EMU_EXECUTOR_HH
#define VPIR_EMU_EXECUTOR_HH

#include <cstddef>
#include <memory>
#include <type_traits>

#include "asm/assembler.hh"
#include "emu/semantics.hh"
#include "emu/state.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/**
 * Callback used by loads to read memory during evaluation: a
 * non-owning reference to any callable `uint64_t(Addr, unsigned)`.
 * Building one is two pointer stores (no std::function, no heap), so
 * the emulator and the core make one per evaluated instruction. It
 * refers to the callable it was made from and must not outlive it:
 * it binds only to named (lvalue) callables, so a temporary lambda
 * cannot leave it dangling; pass it down a call, never store it.
 */
class MemReadFn
{
  public:
    /** No reader: loads evaluate to 0. */
    MemReadFn(std::nullptr_t = nullptr) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cv_t<F>, MemReadFn>>>
    MemReadFn(F &f)
        : ctx(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          fn([](void *c, Addr a, unsigned sz) -> uint64_t {
              return (*static_cast<F *>(c))(a, sz);
          })
    {
    }

    explicit operator bool() const { return fn != nullptr; }

    uint64_t
    operator()(Addr a, unsigned sz) const
    {
        return fn(ctx, a, sz);
    }

  private:
    void *ctx = nullptr;
    uint64_t (*fn)(void *, Addr, unsigned) = nullptr;
};

/**
 * Evaluate an instruction given its operand values: evalInstrWith()
 * (emu/semantics.hh) over a type-erased reader, compiled once.
 *
 * @param inst  The instruction.
 * @param pc    Its PC (for fall-through / link values).
 * @param src0  Value of srcRegs(inst).src[0] (0 if absent).
 * @param src1  Value of srcRegs(inst).src[1] (0 if absent).
 * @param mem   Memory reader for loads; when null, loads return 0.
 */
SemOut evalInstr(const Instr &inst, Addr pc, uint64_t src0, uint64_t src1,
                 MemReadFn mem);

/**
 * Speculative executor for the timing core's dispatch: executes the
 * predecoded words fetch hands it on an EmuState, applies journaled
 * writes, and advances PC.
 */
class Emulator
{
  public:
    /** An emulator over @p state (which must outlive it), at @p pc. */
    Emulator(EmuState &state, Addr pc);

    /**
     * Execute @p w, the word at @p pc (sets PC first), writing only its
     * semantic outcome and operand values into the caller's storage
     * (the core's dispatch path fills its ROB entry in place). @p out
     * and @p src_vals are fully written, zeroed for a halt. @return
     * false when the instruction halts (HALT, or @p w null: a PC off
     * the text segment).
     */
    bool execAt(Addr pc, const DecodedInst *w, SemOut &out,
                uint64_t (&src_vals)[2]);

    Addr pc() const { return curPC; }
    void setPC(Addr pc) { curPC = pc; }
    bool halted() const { return isHalted; }

    // Checkpoint transport. The halt latch is sticky — a wrong-path
    // HALT executed speculatively at dispatch sets it and nothing
    // clears it mid-run — so a restored emulator must reproduce it
    // verbatim, halted or not.
    void setHalt(bool h) { isHalted = h; }

    EmuState &state() { return st; }

    /** Load the program image and initial registers into the state. */
    static void loadProgram(const Program &program, EmuState &state);

  private:
    EmuState &st;
    Addr curPC;
    bool isHalted = false;
};

} // namespace vpir

#endif // VPIR_EMU_EXECUTOR_HH
