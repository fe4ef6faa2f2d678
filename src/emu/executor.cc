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

Emulator::Emulator(const Program &program, EmuState &state)
    : prog(program),
      decoded(predecode(program.text)),
      st(state),
      curPC(program.entry)
{
}

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
Emulator::execAt(Addr pc, SemOut &out, uint64_t (&src_vals)[2])
{
    curPC = pc;
    const Instr *ip = prog.at(curPC);
    if (!ip || ip->op == Op::HALT) {
        // Off the end of text (wrong path) behaves as a halt; the core
        // never lets such instructions commit.
        out = SemOut{};
        src_vals[0] = src_vals[1] = 0;
        isHalted = true;
        return false;
    }

    const StaticInst &si = decoded[static_cast<size_t>(ip -
                                                       prog.text.data())];
    src_vals[0] = si.src.src[0] != REG_INVALID ? st.readReg(si.src.src[0])
                                               : 0;
    src_vals[1] = si.src.src[1] != REG_INVALID ? st.readReg(si.src.src[1])
                                               : 0;

    const EmuState &mem_state = st;
    auto read = [&mem_state](Addr a, unsigned sz) {
        return mem_state.readMem(a, sz);
    };
    out = evalInstr(*ip, curPC, src_vals[0], src_vals[1], read);

    if (si.info->cls == InstClass::Store)
        st.writeMem(out.memAddr, si.info->memSz, out.storeValue);

    if (si.dst.dst[0] != REG_INVALID)
        st.writeReg(si.dst.dst[0], out.result);
    if (si.dst.dst[1] != REG_INVALID)
        st.writeReg(si.dst.dst[1], out.result2);

    curPC = out.nextPC;
    return true;
}

} // namespace vpir
