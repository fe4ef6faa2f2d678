#include "bpred/bpred.hh"

#include <algorithm>
#include <string>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

namespace
{

/** Internal guard: CoreParams::validate() rejects these geometries,
 *  which would index out of range or shift by 32 or more, first. */
const BpredParams &
checked(const BpredParams &p)
{
    VPIR_ASSERT(isPowerOf2(p.tableEntries) && isPowerOf2(p.btbEntries) &&
                    p.rasEntries >= 1 &&
                    p.historyBits <= floorLog2(p.tableEntries),
                "bpred geometry not validated");
    return p;
}

} // anonymous namespace

BranchPredUnit::BranchPredUnit(const BpredParams &p)
    : params(checked(p)),
      tableBits(floorLog2(p.tableEntries)),
      btbBits(floorLog2(p.btbEntries)),
      histMask((1u << p.historyBits) - 1),
      table(p.tableEntries, Counter(1)), // weakly not-taken
      ghr(0),
      btb(p.btbEntries),
      ras(p.rasEntries, 0),
      rasTop(0)
{
}

uint32_t
BranchPredUnit::tableIndex(Addr pc, uint32_t hist) const
{
    uint32_t pc_part = foldPC(pc, tableBits);
    // XOR the history into the high end of the index (gshare).
    uint32_t h = hist & histMask;
    return (pc_part ^ (h << (tableBits - params.historyBits))) &
           (params.tableEntries - 1);
}

uint32_t
BranchPredUnit::btbIndex(Addr pc) const
{
    return foldPC(pc, btbBits);
}

void
BranchPredUnit::rasPush(Addr ret)
{
    ras[rasTop] = ret;
    if (++rasTop == params.rasEntries)
        rasTop = 0;
}

Addr
BranchPredUnit::rasPop()
{
    rasTop = (rasTop == 0 ? params.rasEntries : rasTop) - 1;
    return ras[rasTop];
}

void
BranchPredUnit::checkpoint(BpredCheckpointSlab &slab, size_t slot) const
{
    VPIR_ASSERT(slab.rasEntries == params.rasEntries &&
                    slot < slab.slots(),
                "checkpoint slab does not fit this predictor");
    slab.ghr[slot] = ghr;
    slab.rasTop[slot] = rasTop;
    std::copy(ras.begin(), ras.end(),
              slab.ras.begin() +
                  static_cast<std::ptrdiff_t>(slot * params.rasEntries));
}

void
BranchPredUnit::restore(const BpredCheckpointSlab &slab, size_t slot)
{
    VPIR_ASSERT(slab.rasEntries == params.rasEntries &&
                    slot < slab.slots(),
                "checkpoint slab does not fit this predictor");
    ghr = slab.ghr[slot];
    rasTop = slab.rasTop[slot];
    auto first = slab.ras.begin() +
                 static_cast<std::ptrdiff_t>(slot * params.rasEntries);
    std::copy(first, first + params.rasEntries, ras.begin());
}

BpredLookup
BranchPredUnit::predict(Addr pc, const Instr &inst)
{
    VPIR_ASSERT(isControl(inst.op), "predict() on non-control op");
    BpredLookup r;
    r.ghrUsed = ghr;

    if (isCondBranch(inst.op)) {
        uint32_t idx = tableIndex(pc, ghr);
        r.predTaken = table[idx].isSet();
        r.predTarget = inst.target;
        // Speculative history update with the predicted direction.
        ghr = ((ghr << 1) | (r.predTaken ? 1u : 0u)) & histMask;
        return r;
    }

    // Unconditional control.
    r.predTaken = true;
    if (isCall(inst.op))
        rasPush(pc + 4);

    if (isReturn(inst)) {
        r.predTarget = rasPop();
        r.fromRas = true;
    } else if (isIndirectJump(inst.op)) {
        const BtbEntry &e = btb[btbIndex(pc)];
        r.predTarget = (e.valid && e.pc == pc) ? e.target : pc + 4;
    } else {
        r.predTarget = inst.target; // direct J/JAL: decoded target
    }
    return r;
}

void
BranchPredUnit::forceHistoryBit(bool taken)
{
    ghr = ((ghr << 1) | (taken ? 1u : 0u)) & histMask;
}

void
BranchPredUnit::update(Addr pc, const Instr &inst, bool taken, Addr target,
                       uint32_t ghr_used)
{
    if (isCondBranch(inst.op)) {
        uint32_t idx = tableIndex(pc, ghr_used);
        if (taken)
            table[idx].increment();
        else
            table[idx].decrement();
        return;
    }
    if (isIndirectJump(inst.op) && !isReturn(inst)) {
        BtbEntry &e = btb[btbIndex(pc)];
        e.valid = true;
        e.pc = pc;
        e.target = target;
    }
}

void
BranchPredUnit::serialize(CkptWriter &w) const
{
    w.u64(table.size());
    for (const Counter &c : table)
        w.u8(static_cast<uint8_t>(c.value()));
    w.u32(ghr);
    w.u64(btb.size());
    for (const BtbEntry &e : btb) {
        w.b(e.valid);
        w.u64(e.pc);
        w.u64(e.target);
    }
    w.u64(ras.size());
    for (Addr a : ras)
        w.u64(a);
    w.u32(rasTop);
}

bool
BranchPredUnit::deserialize(CkptReader &r)
{
    if (r.u64() != table.size()) {
        r.fail();
        return false;
    }
    for (Counter &c : table) {
        unsigned v = r.u8();
        if (v > c.max()) {
            r.fail();
            return false;
        }
        c.reset(v);
    }
    ghr = r.u32();
    if (r.u64() != btb.size()) {
        r.fail();
        return false;
    }
    for (BtbEntry &e : btb) {
        e.valid = r.b();
        e.pc = r.u64();
        e.target = r.u64();
    }
    if (r.u64() != ras.size()) {
        r.fail();
        return false;
    }
    for (Addr &a : ras)
        a = r.u64();
    rasTop = r.u32();
    if (rasTop >= ras.size()) {
        // rasTop wraps modulo rasEntries; anything beyond is torn data.
        r.fail();
        return false;
    }
    return r.ok();
}

} // namespace vpir
