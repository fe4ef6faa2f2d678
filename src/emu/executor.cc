#include "emu/executor.hh"

#include "common/logging.hh"

namespace vpir
{

SemOut
evalInstr(const Instr &inst, Addr pc, uint64_t src0, uint64_t src1,
          MemReadFn mem)
{
    auto read = [&mem](Addr a, unsigned sz) -> uint64_t {
        return mem ? mem(a, sz) : 0;
    };
    return evalInstrWith(inst, pc, src0, src1, read);
}

Emulator::Emulator(EmuState &state, Addr pc) : st(state), curPC(pc) {}

void
Emulator::loadProgram(const Program &program, EmuState &state)
{
    for (const auto &[addr, bytes] : program.dataInit) {
        if (!bytes.empty())
            state.initBytes(addr, bytes.data(), bytes.size());
    }
    state.initReg(REG_SP, program.stackTop);
}

bool
Emulator::execAt(Addr pc, const DecodedInst *w, SemOut &out,
                 uint64_t (&src_vals)[2])
{
    curPC = pc;
    if (!w || w->kind >= WordKind::Halt) {
        // Off the end of text (wrong path) behaves as a halt; the core
        // never lets such instructions commit.
        VPIR_ASSERT(!w || w->kind == WordKind::Halt, w->invalid);
        out = SemOut{};
        src_vals[0] = src_vals[1] = 0;
        isHalted = true;
        return false;
    }

    src_vals[0] = st.readReg(w->src[0]);
    src_vals[1] = st.readReg(w->src[1]);

    const EmuState &mem_state = st;
    auto read = [&mem_state](Addr a, unsigned sz) {
        return mem_state.readMem(a, sz);
    };
    out = evalInstr(w->inst, curPC, src_vals[0], src_vals[1], read);

    if (w->kind == WordKind::Store)
        st.writeMem(out.memAddr, w->memSz, out.storeValue);
    // Writes to r0 (an absent destination) are dropped unjournaled.
    st.writeReg(w->dst[0], out.result);
    st.writeReg(w->dst[1], out.result2);

    curPC = out.nextPC;
    return true;
}

} // namespace vpir
