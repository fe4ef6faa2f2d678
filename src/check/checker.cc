#include "check/checker.hh"

#include <sstream>

#include "common/logging.hh"
#include "isa/decode.hh"
#include "isa/disasm.hh"

namespace vpir
{

LockstepChecker::LockstepChecker(const DecodedProgram &program,
                                 const EmuSnapshot &warm)
    : state(warm.state), // COW page share; writes fault private
      engine(program, state)
{
    // Where the core starts fetching: a warmup that ran the program to
    // its HALT restarts it from the entry PC.
    engine.setPC(warm.halted ? program.entry : warm.pc);
}

void
LockstepChecker::onRetire(const Retired &r)
{
    ring[ringCount % histSize] = r;
    ++ringCount;

    if (r.inst.op == Op::HALT) {
        // Nothing architectural to compare; the run is over.
        ++checked;
        return;
    }

    if (engine.pc() != r.pc) {
        diverge(r, "retired PC " + std::to_string(r.pc) +
                       " but the reference machine is at PC " +
                       std::to_string(engine.pc()));
    }

    SemOut x;
    uint64_t src_vals[2];
    engine.step(x, src_vals);

    std::ostringstream mismatch;
    auto expect = [&](const char *field, uint64_t want, uint64_t got) {
        if (want != got) {
            mismatch << "  " << field << ": expected 0x" << std::hex
                     << want << ", core committed 0x" << got << std::dec
                     << "\n";
        }
    };

    if (r.inst.rd != REG_INVALID)
        expect("result(rd)", x.result, r.result);
    if (r.inst.rd2 != REG_INVALID)
        expect("result2(rd2)", x.result2, r.result2);
    if (isControl(r.inst.op))
        expect("nextPC", x.nextPC, r.nextPC);
    if (isMem(r.inst.op))
        expect("memAddr", x.memAddr, r.memAddr);
    if (isStore(r.inst.op))
        expect("storeValue", x.storeValue, r.storeValue);

    std::string bad = mismatch.str();
    if (!bad.empty())
        diverge(r, "value mismatch\n" + bad);

    ++checked;
}

void
LockstepChecker::diverge(const Retired &r, const std::string &what)
{
    std::ostringstream os;
    os << "lockstep divergence at cycle " << r.cycle << ", seq " << r.seq
       << ", pc 0x" << std::hex << r.pc << std::dec << " ["
       << disassemble(r.inst) << "]: " << what << "\n"
       << "last " << std::min(ringCount, histSize)
       << " retired instructions (oldest first):\n"
       << history();
    panic(os.str());
}

std::string
LockstepChecker::history() const
{
    std::ostringstream os;
    size_t n = std::min(ringCount, histSize);
    for (size_t i = 0; i < n; ++i) {
        const Retired &r = ring[(ringCount - n + i) % histSize];
        os << "  seq " << r.seq << " cyc " << r.cycle << " pc 0x"
           << std::hex << r.pc << std::dec << "  " << disassemble(r.inst);
        if (r.inst.rd != REG_INVALID)
            os << "  => 0x" << std::hex << r.result << std::dec;
        os << "\n";
    }
    return os.str();
}

namespace
{

void
serializeInstr(CkptWriter &w, const Instr &i)
{
    w.u8(static_cast<uint8_t>(i.op));
    w.u8(i.rd);
    w.u8(i.rd2);
    w.u8(i.rs);
    w.u8(i.rt);
    w.u32(static_cast<uint32_t>(i.imm));
    w.u32(i.target);
}

void
deserializeInstr(CkptReader &r, Instr &i)
{
    i.op = static_cast<Op>(r.u8());
    i.rd = r.u8();
    i.rd2 = r.u8();
    i.rs = r.u8();
    i.rt = r.u8();
    i.imm = static_cast<int32_t>(r.u32());
    i.target = r.u32();
}

} // anonymous namespace

void
LockstepChecker::serialize(CkptWriter &w) const
{
    state.serialize(w);
    w.u32(engine.pc());
    w.b(engine.halted());
    w.u64(checked);
    w.u64(ringCount);
    for (const Retired &r : ring) {
        w.u64(r.seq);
        w.u64(r.cycle);
        w.u32(r.pc);
        serializeInstr(w, r.inst);
        w.u64(r.result);
        w.u64(r.result2);
        w.u32(r.nextPC);
        w.u32(r.memAddr);
        w.u64(r.storeValue);
    }
}

bool
LockstepChecker::deserialize(CkptReader &r)
{
    if (!state.deserialize(r))
        return false;
    engine.setPC(r.u32());
    engine.setHalt(r.b());
    checked = r.u64();
    ringCount = static_cast<size_t>(r.u64());
    for (Retired &e : ring) {
        e.seq = r.u64();
        e.cycle = r.u64();
        e.pc = r.u32();
        deserializeInstr(r, e.inst);
        e.result = r.u64();
        e.result2 = r.u64();
        e.nextPC = r.u32();
        e.memAddr = r.u32();
        e.storeValue = r.u64();
    }
    return r.ok();
}

} // namespace vpir
