#include "emu/engine.hh"

#include "common/logging.hh"
#include "isa/decode.hh"

namespace vpir
{

namespace
{

/**
 * The register-range and access-size checks the journaled path makes
 * on every access, made here once per static instruction. @return
 * null when @p i passes, else the message its execution asserts with.
 */
const char *
validate(const Instr &i)
{
    if (i.op >= Op::NUM_OPS)
        return "evalInstr: unhandled opcode";
    const SrcRegs s = srcRegs(i);
    const DstRegs d = dstRegs(i);
    for (RegId r : {s.src[0], s.src[1], d.dst[0], d.dst[1]}) {
        if (r != REG_INVALID && r >= NUM_ARCH_REGS)
            return "register id out of range";
    }
    const unsigned sz = memSize(i.op);
    if (isMem(i.op) && sz != 1 && sz != 2 && sz != 4 && sz != 8)
        return "bad memory access size";
    return nullptr;
}

/** Absent registers map to r0: it reads as zero, and the engine
 *  re-zeroes it after writing a result it did not want. */
RegId
orZero(RegId r)
{
    return r == REG_INVALID ? REG_ZERO : r;
}

} // anonymous namespace

FuncEngine::FuncEngine(const Program &program, EmuState &state)
    : prog(program), st(state), curPC(program.entry)
{
    code.reserve(program.text.size());
    for (const Instr &i : program.text) {
        Decoded d{i, {REG_ZERO, REG_ZERO}, {REG_ZERO, REG_ZERO},
                  Kind::Bad, 0};
        if (!validate(i)) {
            const SrcRegs s = srcRegs(i);
            const DstRegs t = dstRegs(i);
            d.src[0] = orZero(s.src[0]);
            d.src[1] = orZero(s.src[1]);
            d.dst[0] = orZero(t.dst[0]);
            d.dst[1] = orZero(t.dst[1]);
            d.memSz = static_cast<uint8_t>(memSize(i.op));
            d.kind = i.op == Op::HALT ? Kind::Halt
                     : isStore(i.op)  ? Kind::Store
                                      : Kind::Exec;
        }
        code.push_back(d);
    }
}

template <bool REPORT>
inline bool
FuncEngine::exec(SemOut &out, uint64_t *src_vals)
{
    // Unsigned offset: a PC below the text base wraps past the end.
    const uint32_t off = curPC - prog.textBase;
    const size_t idx = off >> 2;
    const Decoded *d =
        (off & 3) == 0 && idx < code.size() ? &code[idx] : nullptr;
    if (!d || d->kind >= Kind::Halt) {
        // HALT, or off the text segment, which behaves as one.
        VPIR_ASSERT(!d || d->kind == Kind::Halt, validate(d->inst));
        if constexpr (REPORT) {
            out = SemOut{};
            src_vals[0] = src_vals[1] = 0;
        }
        isHalted = true;
        return false;
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
    if (d->kind == Kind::Store)
        st.writeMemRaw(out.memAddr, d->memSz, out.storeValue);
    regs[d->dst[0]] = out.result;
    regs[d->dst[1]] = out.result2;
    regs[REG_ZERO] = 0;
    curPC = out.nextPC;
    return true;
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

bool
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
        FuncEngine eng(program, snap.state);
        eng.run(warmupInsts);
        snap.pc = eng.pc();
        snap.halted = eng.halted();
    }
    return snap;
}

} // namespace vpir
