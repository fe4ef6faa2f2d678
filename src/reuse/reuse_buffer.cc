#include "reuse/reuse_buffer.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

namespace
{

/** Bucket-count exponent for the load index: at least two buckets per
 *  RB entry keeps chains short at any load occupancy. */
unsigned
loadIndexBits(unsigned entries)
{
    unsigned bits = 1;
    while (bits < 31 && (1ull << bits) < 2ull * entries)
        ++bits;
    return bits;
}

/**
 * Aligned words touched by an access of @p size bytes at @p addr, in
 * the order the index has always enumerated them: from the word
 * holding addr while below addr + size (32-bit arithmetic), capped at
 * the most a load or store can touch and stopping at the top of the
 * address space. @return the count written to @p out.
 */
unsigned
coveredWords(Addr addr, unsigned size, Addr out[3])
{
    unsigned n = 0;
    Addr end = addr + size;
    for (Addr a = addr & ~3u; a < end && n < 3; a += 4) {
        out[n++] = a;
        if (a + 4 < a)
            break;
    }
    return n;
}

} // anonymous namespace

ReuseBuffer::ReuseBuffer(const RbParams &p)
    : params(p),
      numSets(p.ways >= 1 ? p.entries / p.ways : 0),
      setBits(floorLog2(numSets)),
      entries(p.entries, Entry()),
      lru(numSets, p.ways >= 1 ? p.ways : 1),
      loadBucketBits(loadIndexBits(p.entries)),
      loadBuckets(size_t{1} << loadBucketBits, -1),
      loadNodes(static_cast<size_t>(p.entries) * MAX_LOAD_WORDS)
{
    VPIR_ASSERT(p.ways >= 1 && p.entries % p.ways == 0,
                "entries must divide into ways");
    VPIR_ASSERT(isPowerOf2(numSets), "set count not a power of two");
}

bool
ReuseBuffer::operandOk(const Operand &op, const RbOperandQuery &q) const
{
    if (op.reg == REG_ZERO)
        return true; // no operand, trivially matches
    if (q.reg != op.reg)
        return false; // different static instruction in this slot

    if (q.ready)
        return q.value == op.value;

    // Operand not available at decode: only a dependence-pointer chain
    // to an entry the in-flight producer was reused from can rescue it
    // (S_{n+d}'s same-cycle chain collapse).
    if (q.producerReuse.valid() && op.src.valid() &&
        q.producerReuse.idx == op.src.idx &&
        q.producerReuse.serial == op.src.serial) {
        // Exact link match implies the producer delivers exactly the
        // operand value this entry was computed with.
        return q.value == op.value;
    }
    return false;
}

RbProbeResult
ReuseBuffer::probe(Addr pc, const Instr &inst,
                   const RbOperandQuery ops_q[2]) const
{
    RbProbeResult r;
    uint32_t si = setIndex(pc);
    const bool is_ld = isLoad(inst.op);
    const bool is_st = isStore(inst.op);

    for (unsigned w = 0; w < params.ways; ++w) {
        const Entry &e = entries[si * params.ways + w];
        if (!e.valid || e.pc != pc || e.op != inst.op)
            continue;

        bool op0 = operandOk(e.ops[0], ops_q[0]);
        bool op1 = operandOk(e.ops[1], ops_q[1]);

        if (is_ld) {
            // Address part depends only on the base register (op 0).
            if (!op0)
                continue;
            r.addrReused = true;
            r.resultReused = e.memValid;
        } else if (is_st) {
            // Stores have no result; a base-operand match reuses the
            // address computation.
            if (!op0)
                continue;
            r.addrReused = true;
            r.resultReused = false;
        } else {
            if (!op0 || !op1)
                continue;
            r.resultReused = true;
        }

        r.entry = RbRef{static_cast<int>(si * params.ways + w), e.serial};
        r.result = e.result;
        r.result2 = e.result2;
        r.taken = e.taken;
        r.nextPC = e.nextPC;
        r.memAddr = e.memAddr;
        r.memValue = e.memValue;
        r.recoveredSquashedWork = e.fromSquashed;

        // Prefer a full-result hit; keep scanning only if this way gave
        // just an address hit and a later way might do better.
        if (r.resultReused || is_st)
            return r;
    }
    return r;
}

void
ReuseBuffer::noteReused(const RbProbeResult &hit, const Instr &inst)
{
    (void)inst;
    VPIR_ASSERT(hit.entry.valid(), "noteReused without a hit");
    Entry &e = entries[hit.entry.idx];
    if (e.serial != hit.entry.serial)
        return; // overwritten between probe and use; nothing to note
    lru.touch(static_cast<size_t>(hit.entry.idx) / params.ways,
              static_cast<unsigned>(hit.entry.idx) % params.ways);
    if (e.fromSquashed)
        e.fromSquashed = false; // recovery credit consumed once
}

void
ReuseBuffer::registerLoad(int idx)
{
    const Entry &e = entries[idx];
    Addr words[MAX_LOAD_WORDS];
    unsigned n = coveredWords(e.memAddr, e.memSz, words);
    for (unsigned j = 0; j < n; ++j) {
        int id = idx * static_cast<int>(MAX_LOAD_WORDS) +
                 static_cast<int>(j);
        LoadNode &node = loadNodes[id];
        int &head = loadBuckets[loadBucket(words[j])];
        node.word = words[j];
        node.prev = -1;
        node.next = head;
        node.linked = true;
        if (head >= 0)
            loadNodes[head].prev = id;
        head = id;
    }
}

void
ReuseBuffer::unregisterLoad(int idx)
{
    for (unsigned j = 0; j < MAX_LOAD_WORDS; ++j) {
        int id = idx * static_cast<int>(MAX_LOAD_WORDS) +
                 static_cast<int>(j);
        LoadNode &node = loadNodes[id];
        if (!node.linked)
            continue;
        if (node.prev >= 0)
            loadNodes[node.prev].next = node.next;
        else
            loadBuckets[loadBucket(node.word)] = node.next;
        if (node.next >= 0)
            loadNodes[node.next].prev = node.prev;
        node = LoadNode{};
    }
}

RbRef
ReuseBuffer::insert(const RbInsertInfo &info)
{
    uint32_t si = setIndex(info.pc);

    // Refresh an existing instance with identical operands.
    int way = -1;
    for (unsigned w = 0; w < params.ways; ++w) {
        Entry &e = entries[si * params.ways + w];
        if (e.valid && e.pc == info.pc && e.op == info.inst.op &&
            e.ops[0].reg == info.srcReg[0] &&
            e.ops[1].reg == info.srcReg[1] &&
            (e.ops[0].reg == REG_ZERO ||
             e.ops[0].value == info.srcVal[0]) &&
            (e.ops[1].reg == REG_ZERO ||
             e.ops[1].value == info.srcVal[1])) {
            way = static_cast<int>(w);
            break;
        }
    }

    bool fresh = way < 0;
    if (fresh) {
        for (unsigned w = 0; w < params.ways; ++w) {
            if (!entries[si * params.ways + w].valid) {
                way = static_cast<int>(w);
                break;
            }
        }
        if (way < 0)
            way = static_cast<int>(lru.victim(si));
    }

    int idx = static_cast<int>(si * params.ways + way);
    Entry &e = entries[idx];

    const bool new_ld = isLoad(info.inst.op);
    const unsigned new_sz = memSize(info.inst.op);
    // A refreshed load covering the same span keeps its load-index
    // registrations; only a changed span relinks them.
    const bool same_span = e.valid && e.isLd && new_ld &&
                           e.memAddr == info.memAddr && e.memSz == new_sz;
    if (e.valid && e.isLd && !same_span)
        unregisterLoad(idx);

    if (fresh)
        e.serial = nextSerial++;
    e.valid = true;
    e.pc = info.pc;
    e.op = info.inst.op;
    for (int k = 0; k < 2; ++k) {
        e.ops[k].reg = info.srcReg[k];
        e.ops[k].value = info.srcVal[k];
        e.ops[k].src = RbRef{};
    }
    e.result = info.result;
    e.result2 = info.result2;
    e.taken = info.taken;
    e.nextPC = info.nextPC;
    e.memAddr = info.memAddr;
    e.memValue = info.memValue;
    e.memValid = new_ld;
    e.fromSquashed = false;
    e.isLd = new_ld;
    e.memSz = new_sz;

    if (new_ld && !same_span)
        registerLoad(idx);

    lru.touch(si, static_cast<unsigned>(way));
    return RbRef{idx, e.serial};
}

void
ReuseBuffer::linkSources(const RbRef &ref, const RbRef src_links[2])
{
    if (!ref.valid())
        return;
    Entry &e = entries[ref.idx];
    if (e.serial != ref.serial)
        return;
    for (int k = 0; k < 2; ++k)
        e.ops[k].src = src_links[k];
}

void
ReuseBuffer::storeInvalidate(Addr addr, unsigned size)
{
    Addr words[MAX_LOAD_WORDS];
    unsigned n = coveredWords(addr, size, words);
    for (unsigned j = 0; j < n; ++j) {
        for (int id = loadBuckets[loadBucket(words[j])]; id >= 0;
             id = loadNodes[id].next) {
            if (loadNodes[id].word == words[j])
                entries[id / static_cast<int>(MAX_LOAD_WORDS)].memValid =
                    false;
        }
    }
}

void
ReuseBuffer::markSquashed(const RbRef &ref)
{
    if (!ref.valid())
        return;
    Entry &e = entries[ref.idx];
    if (e.valid && e.serial == ref.serial)
        e.fromSquashed = true;
}

void
ReuseBuffer::clearLoadIndex()
{
    std::fill(loadBuckets.begin(), loadBuckets.end(), -1);
    std::fill(loadNodes.begin(), loadNodes.end(), LoadNode{});
}

void
ReuseBuffer::reset()
{
    for (Entry &e : entries)
        e.valid = false;
    clearLoadIndex();
}

unsigned
ReuseBuffer::instancesFor(Addr pc) const
{
    uint32_t si = setIndex(pc);
    unsigned n = 0;
    for (unsigned w = 0; w < params.ways; ++w) {
        const Entry &e = entries[si * params.ways + w];
        if (e.valid && e.pc == pc)
            ++n;
    }
    return n;
}

std::string
ReuseBuffer::audit() const
{
    size_t expect_regs = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.valid)
            continue;
        // Built only on failure: a clean sweep allocates nothing.
        auto at = [&](const char *what) {
            return "RB entry " + std::to_string(i) + " (pc " +
                   std::to_string(e.pc) + "): " + what;
        };
        if (e.isLd != isLoad(e.op))
            return at("cached isLd disagrees with opcode");
        if (e.memSz != memSize(e.op))
            return at("cached memSz disagrees with opcode");
        if (e.serial == 0 || e.serial >= nextSerial)
            return at("serial outside the issued range");
        if (setIndex(e.pc) != static_cast<uint32_t>(i) / params.ways)
            return at("entry outside its PC's set");
        if (e.isLd) {
            // Every covered word must index back to this entry,
            // exactly once: through the node the entry owns for it,
            // linked into the word's bucket chain.
            Addr words[MAX_LOAD_WORDS];
            unsigned n = coveredWords(e.memAddr, e.memSz, words);
            expect_regs += n;
            for (unsigned j = 0; j < n; ++j) {
                const LoadNode &node = loadNodes[i * MAX_LOAD_WORDS + j];
                if (!node.linked || node.word != words[j])
                    return at("load not registered for a covered word");
            }
        }
    }
    // No stale registrations: the chains hold exactly the valid load
    // entries' covered words, each node in the bucket its word hashes
    // to, owned by a valid load entry, with consistent back links.
    size_t total_regs = 0;
    for (size_t b = 0; b < loadBuckets.size(); ++b) {
        int prev = -1;
        for (int id = loadBuckets[b]; id >= 0; id = loadNodes[id].next) {
            const LoadNode &node = loadNodes[id];
            const Entry &owner = entries[id / MAX_LOAD_WORDS];
            if (!node.linked || loadBucket(node.word) != b ||
                node.prev != prev || !owner.valid || !owner.isLd) {
                return "RB load index chain " + std::to_string(b) +
                       " holds a stale or misplaced registration";
            }
            if (++total_regs > loadNodes.size())
                return "RB load index chain " + std::to_string(b) +
                       " is cyclic";
            prev = id;
        }
    }
    if (total_regs != expect_regs) {
        return "RB load index holds " + std::to_string(total_regs) +
               " registrations, entries imply " +
               std::to_string(expect_regs);
    }
    return "";
}

namespace
{

void
serializeRef(CkptWriter &w, const RbRef &ref)
{
    w.u64(static_cast<uint64_t>(static_cast<int64_t>(ref.idx)));
    w.u64(ref.serial);
}

RbRef
deserializeRef(CkptReader &r)
{
    RbRef ref;
    ref.idx = static_cast<int>(static_cast<int64_t>(r.u64()));
    ref.serial = r.u64();
    return ref;
}

} // anonymous namespace

void
ReuseBuffer::serialize(CkptWriter &w) const
{
    w.u64(entries.size());
    for (const Entry &e : entries) {
        w.b(e.valid);
        w.u64(e.pc);
        w.u8(static_cast<uint8_t>(e.op));
        for (const Operand &op : e.ops) {
            w.u32(static_cast<uint32_t>(op.reg));
            w.u64(op.value);
            serializeRef(w, op.src);
        }
        w.u64(e.result);
        w.u64(e.result2);
        w.b(e.taken);
        w.u64(e.nextPC);
        w.u64(e.memAddr);
        w.u64(e.memValue);
        w.b(e.memValid);
        w.b(e.fromSquashed);
        w.b(e.isLd);
        w.u32(e.memSz);
        w.u64(e.serial);
    }
    lru.serialize(w);
    w.u64(nextSerial);
    for (const RbRef &ref : regLink)
        serializeRef(w, ref);
}

bool
ReuseBuffer::deserialize(CkptReader &r)
{
    if (r.u64() != entries.size()) {
        r.fail();
        return false;
    }
    clearLoadIndex();
    for (Entry &e : entries) {
        e.valid = r.b();
        e.pc = r.u64();
        e.op = static_cast<Op>(r.u8());
        for (Operand &op : e.ops) {
            op.reg = static_cast<RegId>(r.u32());
            op.value = r.u64();
            op.src = deserializeRef(r);
        }
        e.result = r.u64();
        e.result2 = r.u64();
        e.taken = r.b();
        e.nextPC = r.u64();
        e.memAddr = r.u64();
        e.memValue = r.u64();
        e.memValid = r.b();
        e.fromSquashed = r.b();
        e.isLd = r.b();
        e.memSz = r.u32();
        e.serial = r.u64();
    }
    if (!lru.deserialize(r))
        return false;
    nextSerial = r.u64();
    for (RbRef &ref : regLink)
        ref = deserializeRef(r);
    if (!r.ok())
        return false;
    // The load index is derived: rebuild it from the restored entries
    // (same registration rule as insert()).
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].valid && entries[i].isLd)
            registerLoad(static_cast<int>(i));
    }
    return true;
}

} // namespace vpir
