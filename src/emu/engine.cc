#include "emu/engine.hh"

#include "common/logging.hh"
#include "isa/decode.hh"

namespace vpir
{

FuncEngine::FuncEngine(const DecodedProgram &program, EmuState &state)
    : code(program), st(state), curPC(program.entry)
{
}

template <bool REPORT>
inline const DecodedInst *
FuncEngine::exec(SemOut &out, uint64_t *src_vals)
{
    const DecodedInst *d = code.at(curPC);
    if (!d || d->kind >= WordKind::Halt) {
        // HALT, or off the text segment, which behaves as one.
        VPIR_ASSERT(!d || d->kind == WordKind::Halt, d->invalid);
        if constexpr (REPORT) {
            out = SemOut{};
            src_vals[0] = src_vals[1] = 0;
        }
        isHalted = true;
        return nullptr;
    }

    uint64_t *regs = st.regs.data();
    const uint64_t s0 = regs[d->src[0]];
    const uint64_t s1 = regs[d->src[1]];
    if constexpr (REPORT) {
        src_vals[0] = s0;
        src_vals[1] = s1;
    }
    const EmuState &mem = st;
    auto read = [&mem](Addr a, unsigned sz) { return mem.readMemRaw(a, sz); };
    out = evalInstrWith(d->inst, curPC, s0, s1, read);
    if (d->kind == WordKind::Store)
        st.writeMemRaw(out.memAddr, d->memSz, out.storeValue);
    // An absent destination is r0: write it, then re-zero it.
    regs[d->dst[0]] = out.result;
    regs[d->dst[1]] = out.result2;
    regs[REG_ZERO] = 0;
    curPC = out.nextPC;
    return d;
}

uint64_t
FuncEngine::run(uint64_t max_insts)
{
    VPIR_ASSERT(st.journalDepth() == 0,
                "functional run over live speculation in the journal");
    if (isHalted)
        return 0;
    SemOut out;
    uint64_t n = 0;
    while (n < max_insts) {
        ++n;
        if (!exec<false>(out, nullptr))
            break;
    }
    return n;
}

const DecodedInst *
FuncEngine::step(SemOut &out, uint64_t (&src_vals)[2])
{
    VPIR_ASSERT(st.journalDepth() == 0,
                "functional step over live speculation in the journal");
    return exec<true>(out, src_vals);
}

EmuSnapshot
makeWarmSnapshot(const Program &program, uint64_t warmupInsts)
{
    EmuSnapshot snap;
    Emulator::loadProgram(program, snap.state);
    snap.pc = program.entry;
    snap.warmupInsts = warmupInsts;
    if (warmupInsts) {
        const DecodedProgram code = predecode(program);
        FuncEngine eng(code, snap.state);
        eng.run(warmupInsts);
        snap.pc = eng.pc();
        snap.halted = eng.halted();
    }
    return snap;
}

} // namespace vpir
