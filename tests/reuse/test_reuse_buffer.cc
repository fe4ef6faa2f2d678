/** @file Unit tests for the S_{n+d} reuse buffer. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "reuse/reuse_buffer.hh"

using namespace vpir;

namespace
{

RbParams
smallRb()
{
    return RbParams{64, 4};
}

Instr
addInstr()
{
    Instr i;
    i.op = Op::ADD;
    i.rd = 3;
    i.rs = 1;
    i.rt = 2;
    return i;
}

Instr
loadInstr()
{
    Instr i;
    i.op = Op::LW;
    i.rd = 3;
    i.rs = 1;
    i.imm = 0;
    return i;
}

RbInsertInfo
addInsert(Addr pc, uint64_t a, uint64_t b)
{
    RbInsertInfo info;
    info.pc = pc;
    info.inst = addInstr();
    info.srcReg[0] = 1;
    info.srcReg[1] = 2;
    info.srcVal[0] = a;
    info.srcVal[1] = b;
    info.result = (a + b) & 0xffffffff;
    return info;
}

RbInsertInfo
loadInsert(Addr pc, uint64_t base, uint64_t value)
{
    RbInsertInfo info;
    info.pc = pc;
    info.inst = loadInstr();
    info.srcReg[0] = 1;
    info.srcReg[1] = REG_ZERO; // no second operand
    info.srcVal[0] = base;
    info.memAddr = static_cast<Addr>(base);
    info.memValue = value;
    info.result = value;
    return info;
}

/** Ready operand query with the given values. */
void
readyOps(RbOperandQuery q[2], uint64_t a, uint64_t b)
{
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = a;
    q[1] = RbOperandQuery{};
    q[1].reg = 2;
    q[1].ready = true;
    q[1].value = b;
}

} // anonymous namespace

TEST(ReuseBuffer, MissOnEmpty)
{
    ReuseBuffer rb(smallRb());
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, HitWithMatchingOperands)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 12u);
}

TEST(ReuseBuffer, MissWithDifferentOperands)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 8);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, MissWhenOperandNotReady)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    q[1].ready = false; // paper §3.1: not ready -> not reused
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, MultipleInstancesPerPC)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 1, 1));
    rb.insert(addInsert(0x1000, 2, 2));
    rb.insert(addInsert(0x1000, 3, 3));
    EXPECT_EQ(rb.instancesFor(0x1000), 3u);
    RbOperandQuery q[2];
    readyOps(q, 2, 2);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 4u);
}

TEST(ReuseBuffer, RefreshDoesNotDuplicate)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 1, 1));
    rb.insert(addInsert(0x1000, 1, 1));
    EXPECT_EQ(rb.instancesFor(0x1000), 1u);
}

TEST(ReuseBuffer, CapacityFourInstances)
{
    ReuseBuffer rb(smallRb());
    for (uint64_t v = 0; v < 6; ++v)
        rb.insert(addInsert(0x1000, v, v));
    EXPECT_EQ(rb.instancesFor(0x1000), 4u);
}

TEST(ReuseBuffer, LoadAddressAndResultReuse)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.addrReused);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.memValue, 77u);
    EXPECT_EQ(r.memAddr, 0x5000u);
}

TEST(ReuseBuffer, StoreKillsLoadResultNotAddress)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x5000, 4);
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.addrReused);     // address part survives
    EXPECT_FALSE(r.resultReused);  // result part invalidated
}

TEST(ReuseBuffer, StoreToOtherAddressLeavesLoadValid)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x6000, 4);
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    EXPECT_TRUE(rb.probe(0x2000, loadInstr(), q).resultReused);
}

TEST(ReuseBuffer, PartialOverlapStoreInvalidates)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77)); // 4-byte load
    rb.storeInvalidate(0x5002, 1);             // one byte inside
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    EXPECT_FALSE(rb.probe(0x2000, loadInstr(), q).resultReused);
}

TEST(ReuseBuffer, ReinsertRevalidatesLoad)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x5000, 4);
    rb.insert(loadInsert(0x2000, 0x5000, 88)); // re-executed load
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.memValue, 88u);
}

TEST(ReuseBuffer, ChainReuseThroughDependencePointer)
{
    ReuseBuffer rb(smallRb());
    // Producer: r3 = r1 + r2 with (5, 7) -> 12.
    RbRef prod = rb.insert(addInsert(0x1000, 5, 7));

    // Consumer: r4 = r3 + r2 with (12, 7), linked to the producer.
    Instr consumer;
    consumer.op = Op::ADD;
    consumer.rd = 4;
    consumer.rs = 3;
    consumer.rt = 2;
    RbInsertInfo info;
    info.pc = 0x1004;
    info.inst = consumer;
    info.srcReg[0] = 3;
    info.srcReg[1] = 2;
    info.srcVal[0] = 12;
    info.srcVal[1] = 7;
    info.result = 19;
    RbRef cons = rb.insert(info);
    RbRef links[2] = {prod, RbRef{}};
    rb.linkSources(cons, links);

    // Probe the consumer with operand r3 NOT ready, but its in-flight
    // producer reused from the linked entry: the chain collapses.
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 3;
    q[0].ready = false;
    q[0].value = 12;
    q[0].producerReuse = prod;
    q[1] = RbOperandQuery{};
    q[1].reg = 2;
    q[1].ready = true;
    q[1].value = 7;
    RbProbeResult r = rb.probe(0x1004, consumer, q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 19u);

    // A stale link (different serial) must not chain.
    q[0].producerReuse.serial += 1;
    EXPECT_FALSE(rb.probe(0x1004, consumer, q).resultReused);
}

TEST(ReuseBuffer, SquashedWorkRecoveryCreditOnce)
{
    ReuseBuffer rb(smallRb());
    RbRef ref = rb.insert(addInsert(0x1000, 5, 7));
    rb.markSquashed(ref);

    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_TRUE(r.recoveredSquashedWork);
    rb.noteReused(r, addInstr());

    // Credit consumed: the next reuse of the same entry is ordinary.
    r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_FALSE(r.recoveredSquashedWork);
}

TEST(ReuseBuffer, BranchOutcomeReuse)
{
    ReuseBuffer rb(smallRb());
    Instr br;
    br.op = Op::BNE;
    br.rs = 1;
    br.rt = 2;
    br.target = 0x3000;
    RbInsertInfo info;
    info.pc = 0x1010;
    info.inst = br;
    info.srcReg[0] = 1;
    info.srcReg[1] = 2;
    info.srcVal[0] = 4;
    info.srcVal[1] = 9;
    info.taken = true;
    info.nextPC = 0x3000;
    rb.insert(info);

    RbOperandQuery q[2];
    readyOps(q, 4, 9);
    RbProbeResult r = rb.probe(0x1010, br, q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPC, 0x3000u);
}

TEST(ReuseBuffer, DifferentOpcodeSamePCMisses)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    Instr sub = addInstr();
    sub.op = Op::SUB;
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, sub, q).resultReused);
}

TEST(ReuseBuffer, ResetClears)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    rb.reset();
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

// --- load index: store invalidation against a brute-force reference ----

namespace
{

/** The per-entry fields of a serialize()d RB that invalidation and
 *  reuse depend on. */
struct EntryView
{
    bool valid = false;
    uint64_t pc = 0;
    uint64_t memAddr = 0;
    bool memValid = false;
    bool isLd = false;
    unsigned memSz = 0;
    uint64_t serial = 0;

    bool
    operator==(const EntryView &o) const
    {
        return valid == o.valid && pc == o.pc && memAddr == o.memAddr &&
               memValid == o.memValid && isLd == o.isLd &&
               memSz == o.memSz && serial == o.serial;
    }
};

/** Decode the entry array of a ReuseBuffer::serialize() bundle. */
std::vector<EntryView>
entryViews(const ReuseBuffer &rb)
{
    CkptWriter w;
    rb.serialize(w);
    CkptReader r(w.data());
    std::vector<EntryView> out(r.u64());
    for (EntryView &e : out) {
        e.valid = r.b();
        e.pc = r.u64();
        (void)r.u8(); // op
        for (int k = 0; k < 2; ++k) {
            (void)r.u32(); // reg
            (void)r.u64(); // value
            (void)r.u64(); // src idx
            (void)r.u64(); // src serial
        }
        (void)r.u64(); // result
        (void)r.u64(); // result2
        (void)r.b();   // taken
        (void)r.u64(); // nextPC
        e.memAddr = r.u64();
        (void)r.u64(); // memValue
        e.memValid = r.b();
        (void)r.b();   // fromSquashed
        e.isLd = r.b();
        e.memSz = r.u32();
        e.serial = r.u64();
    }
    EXPECT_TRUE(r.ok());
    return out;
}

/** Aligned words an access covers, enumerated the way the index always
 *  has: from the word holding addr while below addr + size. */
std::vector<Addr>
wordsOf(Addr addr, unsigned size)
{
    std::vector<Addr> w;
    for (Addr a = addr & ~3u; a < addr + size; a += 4)
        w.push_back(a);
    return w;
}

bool
wordsOverlap(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    for (Addr x : a)
        for (Addr y : b)
            if (x == y)
                return true;
    return false;
}

RbInsertInfo
randomInsert(Rng &rng)
{
    static const Op loads[] = {Op::LB, Op::LH, Op::LW, Op::L_D};
    RbInsertInfo info;
    info.pc = static_cast<Addr>(0x1000 + 4 * rng.below(40));
    if (rng.below(5) == 0) {
        info = addInsert(info.pc, rng.below(4), rng.below(4));
        return info;
    }
    uint64_t base = 0x8000 + rng.below(96); // unaligned spans included
    info = loadInsert(info.pc, base, rng.next());
    info.inst.op = loads[rng.below(4)];
    return info;
}

} // anonymous namespace

/**
 * Random loads (every size, unaligned spans, refreshes that move or
 * keep a span), non-load inserts evicting loads, and stores of every
 * size: after each operation the RB must match the brute-force rule —
 * a store kills exactly the valid loads sharing a covered word — the
 * audit must pass, and a hit must offer a load's result exactly while
 * its entry is valid. A serialize/deserialize round trip mid-run must
 * rebuild an index that kills the same entries from then on.
 */
TEST(ReuseBufferLoadIndex, StoreInvalidationMatchesBruteForce)
{
    ReuseBuffer rb(smallRb());
    std::unique_ptr<ReuseBuffer> restored;
    Rng rng(4242);
    unsigned kills = 0;

    for (int step = 0; step < 6000; ++step) {
        std::vector<EntryView> before = entryViews(rb);
        std::vector<EntryView> expect = before;
        Addr st_addr = 0;
        unsigned st_size = 0;
        if (rng.below(3) == 0) {
            st_addr = static_cast<Addr>(0x8000 + rng.below(104));
            st_size = 1u << rng.below(4);
            std::vector<Addr> sw = wordsOf(st_addr, st_size);
            for (EntryView &e : expect) {
                if (e.valid && e.isLd && e.memValid &&
                    wordsOverlap(wordsOf(static_cast<Addr>(e.memAddr),
                                         e.memSz),
                                 sw)) {
                    e.memValid = false;
                    ++kills;
                }
            }
            rb.storeInvalidate(st_addr, st_size);
            if (restored)
                restored->storeInvalidate(st_addr, st_size);
            ASSERT_EQ(entryViews(rb), expect) << "step " << step;
        } else {
            RbInsertInfo info = randomInsert(rng);
            RbRef ref = rb.insert(info);
            if (restored)
                restored->insert(info);
            std::vector<EntryView> after = entryViews(rb);
            // Only the written entry changes, and a load starts valid.
            expect[ref.idx] = after[ref.idx];
            ASSERT_EQ(after, expect) << "step " << step;
            ASSERT_EQ(after[ref.idx].memValid, isLoad(info.inst.op));

            // The hit offers the load's result exactly while valid.
            if (isLoad(info.inst.op) && rng.below(2) == 0) {
                RbOperandQuery q[2];
                q[0].reg = 1;
                q[0].ready = true;
                q[0].value = info.srcVal[0];
                RbProbeResult hit = rb.probe(info.pc, info.inst, q);
                ASSERT_TRUE(hit.addrReused);
                ASSERT_TRUE(hit.resultReused);
            }
        }
        ASSERT_EQ(rb.audit(), "") << "step " << step;

        if (step == 3000) {
            // Round trip; the restored copy rebuilds its index and is
            // driven in lockstep from here on.
            CkptWriter w;
            rb.serialize(w);
            restored = std::make_unique<ReuseBuffer>(smallRb());
            CkptReader r(w.data());
            ASSERT_TRUE(restored->deserialize(r));
            ASSERT_EQ(restored->audit(), "");
        }
        if (restored) {
            ASSERT_EQ(entryViews(*restored), entryViews(rb))
                << "step " << step;
            ASSERT_EQ(restored->audit(), "");
        }
    }
    EXPECT_GT(kills, 500u);
}

/** Killed loads stop offering their result but keep address reuse. */
TEST(ReuseBufferLoadIndex, KilledLoadKeepsAddressHit)
{
    ReuseBuffer rb(smallRb());
    RbInsertInfo ld = loadInsert(0x2000, 0x8002, 77);
    ld.inst.op = Op::L_D; // 0x8002..0x8009: three words
    rb.insert(ld);
    RbOperandQuery q[2];
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x8002;
    EXPECT_TRUE(rb.probe(0x2000, ld.inst, q).resultReused);
    rb.storeInvalidate(0x8008, 1); // touches only the third word
    RbProbeResult hit = rb.probe(0x2000, ld.inst, q);
    EXPECT_TRUE(hit.addrReused);
    EXPECT_FALSE(hit.resultReused);
    EXPECT_EQ(rb.audit(), "");
}
