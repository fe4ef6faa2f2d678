/** @file Unit tests for journaled architectural state. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "emu/state.hh"

using namespace vpir;

TEST(EmuState, R0IsHardwiredZero)
{
    EmuState s;
    s.writeReg(REG_ZERO, 99);
    EXPECT_EQ(s.readReg(REG_ZERO), 0u);
    EXPECT_EQ(s.journalDepth(), 0u); // write was dropped entirely
}

TEST(EmuState, RegisterReadWrite)
{
    EmuState s;
    s.writeReg(5, 1234);
    EXPECT_EQ(s.readReg(5), 1234u);
    s.writeReg(REG_HI, 7);
    EXPECT_EQ(s.readReg(REG_HI), 7u);
}

TEST(EmuState, MemoryLittleEndian)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0x11223344);
    EXPECT_EQ(s.readMem(0x1000, 1), 0x44u);
    EXPECT_EQ(s.readMem(0x1001, 1), 0x33u);
    EXPECT_EQ(s.readMem(0x1000, 2), 0x3344u);
    EXPECT_EQ(s.readMem(0x1000, 4), 0x11223344u);
}

TEST(EmuState, UnmappedMemoryReadsZero)
{
    EmuState s;
    EXPECT_EQ(s.readMem(0xdead0000, 4), 0u);
}

TEST(EmuState, CrossPageAccess)
{
    EmuState s;
    // Write 8 bytes straddling a 4 KiB page boundary.
    s.writeMem(0x1ffc, 8, 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0x1ffc, 8), 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0x2000, 4), 0x01020304u);
}

TEST(EmuState, RollbackRestoresRegisters)
{
    EmuState s;
    s.writeReg(3, 10);
    JournalMark m = s.mark();
    s.writeReg(3, 20);
    s.writeReg(4, 30);
    s.rollback(m);
    EXPECT_EQ(s.readReg(3), 10u);
    EXPECT_EQ(s.readReg(4), 0u);
}

TEST(EmuState, RollbackRestoresMemory)
{
    EmuState s;
    s.writeMem(0x100, 4, 0xaaaa);
    JournalMark m = s.mark();
    s.writeMem(0x100, 4, 0xbbbb);
    s.writeMem(0x104, 2, 0x12);
    s.rollback(m);
    EXPECT_EQ(s.readMem(0x100, 4), 0xaaaau);
    EXPECT_EQ(s.readMem(0x104, 2), 0u);
}

TEST(EmuState, NestedRollbacks)
{
    EmuState s;
    s.writeReg(1, 1);
    JournalMark m1 = s.mark();
    s.writeReg(1, 2);
    JournalMark m2 = s.mark();
    s.writeReg(1, 3);
    s.rollback(m2);
    EXPECT_EQ(s.readReg(1), 2u);
    s.rollback(m1);
    EXPECT_EQ(s.readReg(1), 1u);
}

TEST(EmuState, RetireBoundsJournal)
{
    EmuState s;
    for (int i = 0; i < 100; ++i)
        s.writeReg(2, static_cast<uint64_t>(i));
    EXPECT_EQ(s.journalDepth(), 100u);
    s.retire(s.mark());
    EXPECT_EQ(s.journalDepth(), 0u);
    // State unaffected by retirement.
    EXPECT_EQ(s.readReg(2), 99u);
}

TEST(EmuState, RollbackAfterPartialRetire)
{
    EmuState s;
    s.writeReg(1, 1);
    s.retire(s.mark());
    JournalMark m = s.mark();
    s.writeReg(1, 2);
    s.rollback(m);
    EXPECT_EQ(s.readReg(1), 1u);
}

TEST(EmuState, InitWritesAreNotJournaled)
{
    EmuState s;
    s.initReg(7, 42);
    s.initMem(0x10, 4, 77);
    EXPECT_EQ(s.journalDepth(), 0u);
    EXPECT_EQ(s.readReg(7), 42u);
    EXPECT_EQ(s.readMem(0x10, 4), 77u);
}

// ----------------------------------------------------- copy-on-write

TEST(EmuStateCow, CloneSharesAllPages)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0xaabbccdd);
    s.writeMem(0x5000, 4, 0x11223344);
    s.retire(s.mark());
    ASSERT_EQ(s.residentPages(), 2u);
    EXPECT_EQ(s.sharedPages(), 0u);

    EmuState clone = s;
    // A clone is pointer copies, not data copies: every page shared.
    EXPECT_EQ(clone.residentPages(), 2u);
    EXPECT_EQ(s.sharedPages(), 2u);
    EXPECT_EQ(clone.sharedPages(), 2u);
    EXPECT_EQ(clone.readMem(0x1000, 4), 0xaabbccddu);
    EXPECT_EQ(clone.readMem(0x5000, 4), 0x11223344u);
    EXPECT_EQ(clone.cowFaults(), 0u);
}

TEST(EmuStateCow, WriteFaultsAPrivatePage)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0xaabbccdd);
    s.writeMem(0x5000, 4, 0x11223344);
    s.retire(s.mark());

    EmuState clone = s;
    clone.writeMem(0x1000, 4, 0xdeadbeef);
    // Exactly the written page was cloned; the other stays shared.
    EXPECT_EQ(clone.cowFaults(), 1u);
    EXPECT_EQ(clone.sharedPages(), 1u);
    EXPECT_EQ(s.sharedPages(), 1u);
    EXPECT_EQ(clone.readMem(0x1000, 4), 0xdeadbeefu);
    EXPECT_EQ(s.readMem(0x1000, 4), 0xaabbccddu); // original untouched
    // Writing the same page again must not fault a second time.
    clone.writeMem(0x1004, 4, 1);
    EXPECT_EQ(clone.cowFaults(), 1u);
}

TEST(EmuStateCow, ReadsNeverFault)
{
    EmuState s;
    s.writeMem(0x1000, 4, 42);
    s.retire(s.mark());
    EmuState clone = s;
    EXPECT_EQ(clone.readMem(0x1000, 4), 42u);
    EXPECT_EQ(clone.readMem(0x1ffc, 4), 0u); // same page, zero bytes
    EXPECT_EQ(clone.cowFaults(), 0u);
    EXPECT_EQ(s.sharedPages(), 1u);
}

TEST(EmuStateCow, JournalRollbackAcrossClone)
{
    // The journal must behave identically on a COW clone: speculative
    // writes fault private pages, rollback restores the clone to the
    // snapshot values, and the original never observes any of it.
    EmuState s;
    s.writeReg(5, 77);
    s.writeMem(0x2000, 4, 0x1111);
    s.retire(s.mark());

    EmuState clone = s;
    JournalMark m = clone.mark();
    clone.writeReg(5, 88);
    clone.writeMem(0x2000, 4, 0x2222);
    clone.writeMem(0x9000, 4, 0x3333); // page the original never had
    EXPECT_EQ(s.readMem(0x2000, 4), 0x1111u);
    clone.rollback(m);
    EXPECT_EQ(clone.readReg(5), 77u);
    EXPECT_EQ(clone.readMem(0x2000, 4), 0x1111u);
    EXPECT_EQ(clone.readMem(0x9000, 4), 0u);
    EXPECT_EQ(s.readReg(5), 77u);
    EXPECT_EQ(s.readMem(0x2000, 4), 0x1111u);
}

/**
 * Property test: against a reference model, random interleavings of
 * writes, rollbacks, and retires always restore the exact state.
 */
TEST(EmuState, RandomisedJournalEquivalence)
{
    EmuState s;
    Rng rng(2024);

    struct Shadow
    {
        std::map<RegId, uint64_t> regs;
        std::map<Addr, uint8_t> mem;
    };
    Shadow cur;
    std::vector<std::pair<JournalMark, Shadow>> snaps;

    for (int step = 0; step < 3000; ++step) {
        uint64_t r = rng.below(100);
        if (r < 40) {
            RegId reg = static_cast<RegId>(1 + rng.below(30));
            uint64_t v = rng.next();
            s.writeReg(reg, v);
            cur.regs[reg] = v;
        } else if (r < 80) {
            Addr a = static_cast<Addr>(0x4000 + rng.below(256) * 4);
            uint32_t v = static_cast<uint32_t>(rng.next());
            s.writeMem(a, 4, v);
            for (int b = 0; b < 4; ++b)
                cur.mem[a + b] = static_cast<uint8_t>(v >> (8 * b));
        } else if (r < 90) {
            snaps.emplace_back(s.mark(), cur);
        } else if (!snaps.empty()) {
            size_t k = rng.below(snaps.size());
            s.rollback(snaps[k].first);
            cur = snaps[k].second;
            snaps.resize(k + 1);
        }
    }

    for (const auto &[reg, v] : cur.regs)
        ASSERT_EQ(s.readReg(reg), v);
    for (const auto &[a, v] : cur.mem)
        ASSERT_EQ(s.readMem(a, 1), v);
}

// --- hot-path layout: page-read cache and vector journal --------------

namespace
{

/** Byte-level reference model of one state's memory. */
using ShadowMem = std::map<Addr, uint8_t>;

void
shadowWrite(ShadowMem &m, Addr a, unsigned size, uint64_t v)
{
    for (unsigned b = 0; b < size; ++b)
        m[a + b] = static_cast<uint8_t>(v >> (8 * b));
}

uint64_t
shadowRead(const ShadowMem &m, Addr a, unsigned size)
{
    uint64_t v = 0;
    for (unsigned b = 0; b < size; ++b) {
        auto it = m.find(a + b);
        v |= static_cast<uint64_t>(it == m.end() ? 0 : it->second)
             << (8 * b);
    }
    return v;
}

/** Every byte the shadow knows about reads back identically, through
 *  a mix of access sizes (so cached and uncached pages both serve). */
void
expectMemMatches(const EmuState &s, const ShadowMem &m, const char *who)
{
    for (const auto &[a, v] : m) {
        ASSERT_EQ(s.readMem(a, 1), v) << who << " byte 0x" << std::hex
                                      << a;
        ASSERT_EQ(s.readMem(a & ~3u, 4), shadowRead(m, a & ~3u, 4))
            << who << " word 0x" << std::hex << (a & ~3u);
    }
}

} // anonymous namespace

/** A clone shares pages; each side then writes the shared pages. The
 *  one-entry page cache of each side must follow its own map slot
 *  through the copy-on-write fault, never the other side's page. */
TEST(EmuStateFastPath, PageCacheAcrossCowCloneWritesBothSides)
{
    EmuState s;
    ShadowMem ms;
    for (Addr a = 0x10000; a < 0x14000; a += 0x400) {
        s.initMem(a, 4, a);
        shadowWrite(ms, a, 4, a);
    }
    EXPECT_EQ(s.readMem(0x10400, 4), 0x10400u); // warm s's cache
    EmuState c = s;
    ShadowMem mc = ms;
    EXPECT_EQ(c.readMem(0x10400, 4), 0x10400u); // warm c's cache

    Rng rng(7);
    for (int step = 0; step < 2000; ++step) {
        bool on_clone = rng.below(2) != 0;
        EmuState &t = on_clone ? c : s;
        ShadowMem &mt = on_clone ? mc : ms;
        Addr a = static_cast<Addr>(0x10000 + rng.below(0x4000));
        if (rng.below(3) == 0) {
            uint64_t v = rng.next();
            t.writeMem(a, 4, v);
            shadowWrite(mt, a, 4, v);
        } else {
            ASSERT_EQ(t.readMem(a, 4), shadowRead(mt, a, 4))
                << (on_clone ? "clone" : "source") << " step " << step;
        }
    }
    expectMemMatches(s, ms, "source");
    expectMemMatches(c, mc, "clone");
    EXPECT_GT(s.cowFaults() + c.cowFaults(), 0u);
    EXPECT_EQ(s.sharedPages(), 0u); // both sides wrote every page
}

/** A wrong-path store first touches (creates) a page and the read
 *  cache learns it; rolling the store back must restore the bytes
 *  read through the cache, and a page never touched must read zero
 *  both before and after it is created by a write. */
TEST(EmuStateFastPath, RollbackOverWrongPathFirstTouchedPage)
{
    EmuState s;
    s.initMem(0x1000, 4, 0x11);
    EXPECT_EQ(s.readMem(0x9000, 4), 0u); // absent page, not cached
    JournalMark m = s.mark();
    s.writeMem(0x9000, 4, 0xabcd);       // wrong path creates the page
    EXPECT_EQ(s.readMem(0x9000, 4), 0xabcdu);
    s.writeMem(0x9ffe, 4, 0x01020304);   // and spills into the next one
    EXPECT_EQ(s.readMem(0x9ffe, 4), 0x01020304u);
    EXPECT_EQ(s.readMem(0x1000, 4), 0x11u); // cache moves away...
    s.rollback(m);
    EXPECT_EQ(s.readMem(0x9000, 4), 0u); // ...and back: restored bytes
    EXPECT_EQ(s.readMem(0x9ffe, 4), 0u);
    EXPECT_EQ(s.readMem(0xa000, 2), 0u);
    EXPECT_EQ(s.readMem(0x1000, 4), 0x11u);
    s.writeMem(0x9000, 4, 5);            // the correct path's write
    EXPECT_EQ(s.readMem(0x9000, 4), 5u);
    s.retire(s.mark());
    EXPECT_EQ(s.readMem(0x9000, 4), 5u);
}

/** deserialize() replaces every page: a cache still naming the old
 *  page must not serve stale bytes afterwards. */
TEST(EmuStateFastPath, PageCacheResetByDeserialize)
{
    EmuState a;
    a.initMem(0x2000, 4, 0xaaaa);
    a.initMem(0x5000, 4, 0x5555);
    CkptWriter w;
    a.serialize(w);

    EmuState b;
    b.initMem(0x2000, 4, 0xbbbb);
    b.initMem(0x7000, 4, 0x7777);
    EXPECT_EQ(b.readMem(0x7000, 4), 0x7777u); // b caches a page the
                                              // bundle does not have
    CkptReader r(w.data());
    ASSERT_TRUE(b.deserialize(r));
    EXPECT_EQ(b.readMem(0x7000, 4), 0u);
    EXPECT_EQ(b.readMem(0x2000, 4), 0xaaaau);
    EXPECT_EQ(b.readMem(0x5000, 4), 0x5555u);
    b.writeMem(0x2000, 4, 1);
    EXPECT_EQ(b.readMem(0x2000, 4), 1u);
    EXPECT_EQ(a.readMem(0x2000, 4), 0xaaaau);
}

/** Copy- and move-constructed states start with an empty cache and
 *  read their own pages independently of the source's cache. */
TEST(EmuStateFastPath, CopiedStatesReadIndependently)
{
    EmuState s;
    s.initMem(0x3000, 4, 1);
    s.initMem(0x4000, 4, 2);
    EXPECT_EQ(s.readMem(0x3000, 4), 1u);
    EmuState a(s);
    EmuState b(s);
    EXPECT_EQ(a.readMem(0x4000, 4), 2u);
    b.writeMem(0x3000, 4, 30);
    s.writeMem(0x4000, 4, 40);
    EXPECT_EQ(s.readMem(0x3000, 4), 1u);
    EXPECT_EQ(s.readMem(0x4000, 4), 40u);
    EXPECT_EQ(a.readMem(0x3000, 4), 1u);
    EXPECT_EQ(a.readMem(0x4000, 4), 2u);
    EXPECT_EQ(b.readMem(0x3000, 4), 30u);
    EXPECT_EQ(b.readMem(0x4000, 4), 2u);

    EmuState moved(std::move(b));
    EXPECT_EQ(moved.readMem(0x3000, 4), 30u);
    a = moved; // assignment over a state with a warm cache
    EXPECT_EQ(a.readMem(0x3000, 4), 30u);
    a.writeMem(0x3000, 4, 31);
    EXPECT_EQ(moved.readMem(0x3000, 4), 30u);
}

/**
 * The vector journal against a reference model: random register and
 * memory writes (some straddling a page boundary), rollbacks to any
 * live mark, and retires interleaved, over a run long enough to cross
 * the retired-prefix compaction point many times while records stay
 * live across it.
 */
TEST(EmuStateFastPath, JournalInterleavedRetireRollbackMatchesReference)
{
    EmuState s;
    Rng rng(99);
    struct Shadow
    {
        std::map<RegId, uint64_t> regs;
        ShadowMem mem;
    };
    Shadow cur;
    // Live marks a rollback may still reach, oldest first.
    std::vector<std::pair<JournalMark, Shadow>> snaps;
    snaps.emplace_back(s.mark(), cur);
    JournalMark retired = s.mark();
    uint64_t retires = 0;
    size_t max_depth = 0;

    for (int step = 0; step < 60000; ++step) {
        uint64_t r = rng.below(100);
        if (r < 35) {
            RegId reg = static_cast<RegId>(1 + rng.below(40));
            uint64_t v = rng.next();
            s.writeReg(reg, v);
            cur.regs[reg] = v;
        } else if (r < 70) {
            Addr a = rng.below(8) == 0
                         ? static_cast<Addr>(0x7ffd + rng.below(4))
                         : static_cast<Addr>(0x6000 + rng.below(512) * 4);
            unsigned size = 1u << rng.below(4);
            uint64_t v = rng.next();
            s.writeMem(a, size, v);
            shadowWrite(cur.mem, a, size, v);
        } else if (r < 85) {
            if (s.mark() > snaps.back().first)
                snaps.emplace_back(s.mark(), cur);
        } else if (r < 90) {
            // Roll back to one of the newer live marks.
            size_t k = snaps.size() / 2 + rng.below((snaps.size() + 1) / 2);
            s.rollback(snaps[k].first);
            cur = snaps[k].second;
            snaps.resize(k + 1);
        } else if (snaps.size() >= 2) {
            // Retire (commit) up to a live mark older than the newest
            // one: records past it stay live, so the retired prefix
            // keeps growing behind live records until compacted.
            size_t k = rng.below(snaps.size() - 1);
            retired = snaps[k].first;
            s.retire(retired);
            snaps.erase(snaps.begin(),
                        snaps.begin() + static_cast<std::ptrdiff_t>(k));
            ++retires;
            ASSERT_GT(s.journalDepth(), 0u);
        }
        max_depth = std::max(max_depth, s.journalDepth());
        ASSERT_EQ(s.journalDepth(), s.mark() - retired) << "step " << step;
        if (step % 997 == 0) {
            for (const auto &[reg, v] : cur.regs)
                ASSERT_EQ(s.readReg(reg), v) << "step " << step;
            expectMemMatches(s, cur.mem, "state");
        }
    }
    for (const auto &[reg, v] : cur.regs)
        ASSERT_EQ(s.readReg(reg), v);
    expectMemMatches(s, cur.mem, "state");
    EXPECT_GT(s.mark(), 10000u); // many compactions' worth of records
    EXPECT_GT(retires, 1000u);
    EXPECT_GT(max_depth, 64u);   // records stayed live across them

    // Everything retired: the journal empties, state stays put.
    s.retire(s.mark());
    EXPECT_EQ(s.journalDepth(), 0u);
    expectMemMatches(s, cur.mem, "state");
}
