/** @file Unit tests for the branch prediction unit. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "common/logging.hh"
#include "core/params.hh"

using namespace vpir;

namespace
{

Instr
condBr(Addr target)
{
    Instr i;
    i.op = Op::BNE;
    i.rs = 1;
    i.rt = 2;
    i.target = target;
    return i;
}

Instr
callInst(Addr target)
{
    Instr i;
    i.op = Op::JAL;
    i.rd = REG_RA;
    i.target = target;
    return i;
}

Instr
returnInst()
{
    Instr i;
    i.op = Op::JR;
    i.rs = REG_RA;
    return i;
}

} // anonymous namespace

namespace
{

/**
 * Drive one predict/update round the way the core does: speculative
 * history is repaired (checkpoint restore + actual outcome) whenever
 * the prediction was wrong.
 */
bool
predictAndTrain(BranchPredUnit &bp, Addr pc, const Instr &br,
                bool outcome, Addr target)
{
    BpredCheckpointSlab cps = bp.makeCheckpointSlab(1);
    bp.checkpoint(cps, 0);
    BpredLookup l = bp.predict(pc, br);
    if (l.predTaken != outcome) {
        bp.restore(cps, 0);
        bp.forceHistoryBit(outcome);
    }
    bp.update(pc, br, outcome, target, l.ghrUsed);
    return l.predTaken == outcome;
}

} // anonymous namespace

TEST(Gshare, LearnsAlwaysTaken)
{
    BranchPredUnit bp;
    Instr br = condBr(0x2000);
    // History shifts toward all-taken as training proceeds; give it
    // enough rounds to saturate the 10-bit GHR and train that index.
    for (int i = 0; i < 20; ++i)
        predictAndTrain(bp, 0x1000, br, true, 0x2000);
    BpredLookup l = bp.predict(0x1000, br);
    EXPECT_TRUE(l.predTaken);
    EXPECT_EQ(l.predTarget, 0x2000u);
}

TEST(Gshare, LearnsAlwaysNotTaken)
{
    BranchPredUnit bp;
    Instr br = condBr(0x2000);
    for (int i = 0; i < 4; ++i) {
        BpredLookup l = bp.predict(0x1000, br);
        bp.update(0x1000, br, false, 0x1004, l.ghrUsed);
    }
    EXPECT_FALSE(bp.predict(0x1000, br).predTaken);
}

TEST(Gshare, LearnsAlternationThroughHistory)
{
    BranchPredUnit bp;
    Instr br = condBr(0x2000);
    bool outcome = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        bool ok = predictAndTrain(bp, 0x1000, br, outcome,
                                  outcome ? 0x2000 : 0x1004);
        if (i >= 200 && ok)
            ++correct;
    }
    // A T/NT alternation is trivially captured by global history.
    EXPECT_GT(correct, 190);
}

TEST(Gshare, TableIndexUsesHistory)
{
    BranchPredUnit bp;
    EXPECT_NE(bp.tableIndex(0x1000, 0), bp.tableIndex(0x1000, 0x3ff));
}

TEST(Bpred, DirectJumpPredictsTarget)
{
    BranchPredUnit bp;
    Instr j;
    j.op = Op::J;
    j.target = 0x4444;
    BpredLookup l = bp.predict(0x1000, j);
    EXPECT_TRUE(l.predTaken);
    EXPECT_EQ(l.predTarget, 0x4444u);
}

TEST(Bpred, BtbLearnsIndirectTargets)
{
    BranchPredUnit bp;
    Instr jr;
    jr.op = Op::JR;
    jr.rs = 5; // not a return
    BpredLookup l = bp.predict(0x1000, jr);
    EXPECT_EQ(l.predTarget, 0x1004u); // cold BTB falls through
    bp.update(0x1000, jr, true, 0x8000, l.ghrUsed);
    l = bp.predict(0x1000, jr);
    EXPECT_EQ(l.predTarget, 0x8000u);
}

TEST(Bpred, RasPredictsReturns)
{
    BranchPredUnit bp;
    bp.predict(0x1000, callInst(0x5000)); // pushes 0x1004
    bp.predict(0x2000, callInst(0x6000)); // pushes 0x2004
    BpredLookup l = bp.predict(0x6100, returnInst());
    EXPECT_TRUE(l.fromRas);
    EXPECT_EQ(l.predTarget, 0x2004u);
    l = bp.predict(0x5100, returnInst());
    EXPECT_EQ(l.predTarget, 0x1004u);
}

TEST(Bpred, CheckpointRestoresHistoryAndRas)
{
    BranchPredUnit bp;
    bp.predict(0x1000, callInst(0x5000));
    BpredCheckpointSlab cps = bp.makeCheckpointSlab(1);
    bp.checkpoint(cps, 0);

    // Pollute: another call and some history bits.
    bp.predict(0x2000, callInst(0x6000));
    Instr br = condBr(0x3000);
    bp.predict(0x2100, br);
    bp.predict(0x2200, br);

    bp.restore(cps, 0);
    BpredLookup l = bp.predict(0x5100, returnInst());
    EXPECT_EQ(l.predTarget, 0x1004u); // original RAS top
}

TEST(Bpred, ForceHistoryMatchesPredictShift)
{
    BranchPredUnit a, b;
    Instr br = condBr(0x2000);
    // a: predict (shifts predicted bit); outcome agrees.
    BpredLookup la = a.predict(0x1000, br);
    // b: restore-free equivalent via forceHistoryBit.
    b.forceHistoryBit(la.predTaken);
    EXPECT_EQ(a.predict(0x1400, br).ghrUsed,
              b.predict(0x1400, br).ghrUsed);
}

TEST(Bpred, RedoCallAndReturn)
{
    BranchPredUnit bp;
    BpredCheckpointSlab cps = bp.makeCheckpointSlab(1);
    bp.checkpoint(cps, 0);
    bp.predict(0x1000, callInst(0x5000));
    bp.restore(cps, 0);
    bp.redoCall(0x1004);
    EXPECT_EQ(bp.predict(0x5100, returnInst()).predTarget, 0x1004u);
}

TEST(Bpred, DeepCallChainsWrapRas)
{
    BranchPredUnit bp;
    // Overflow the 16-entry RAS; the newest 16 returns still match.
    for (int i = 0; i < 20; ++i)
        bp.predict(0x1000 + 16 * i, callInst(0x9000));
    for (int i = 19; i >= 4; --i) {
        BpredLookup l = bp.predict(0x9100, returnInst());
        EXPECT_EQ(l.predTarget, 0x1000u + 16 * i + 4);
    }
}

// --- parameter validation ----------------------------------------------

namespace
{

/** CoreParams::validate()'s panic message for a machine with
 *  predictor @p p ("" when it accepts). */
std::string
rejection(const BpredParams &p)
{
    CoreParams machine;
    machine.bpred = p;
    PanicThrowScope throws;
    try {
        machine.validate();
    } catch (const SimError &e) {
        return e.what();
    }
    return "";
}

} // anonymous namespace

TEST(BpredParams, EmptyRasIsRejected)
{
    BpredParams p;
    p.rasEntries = 0;
    EXPECT_NE(rejection(p).find("rasEntries"), std::string::npos);
}

TEST(BpredParams, HistoryLongerThanTableIndexIsRejected)
{
    BpredParams p;
    p.tableEntries = 1024; // 10 index bits
    p.historyBits = 11;
    EXPECT_NE(rejection(p).find("historyBits"), std::string::npos);
    p.historyBits = 10; // exactly the index width is fine
    EXPECT_EQ(rejection(p), "");
}

TEST(BpredParams, HistoryOf32BitsIsRejected)
{
    BpredParams p;
    p.tableEntries = 1u << 31;
    p.historyBits = 32;
    EXPECT_NE(rejection(p).find("historyBits"), std::string::npos);
}

TEST(BpredParams, NonPowerOfTwoTablesAreRejected)
{
    BpredParams p;
    p.tableEntries = 1000;
    EXPECT_NE(rejection(p).find("tableEntries"), std::string::npos);
    p = BpredParams();
    p.btbEntries = 3;
    EXPECT_NE(rejection(p).find("btbEntries"), std::string::npos);
}

TEST(BpredParams, SingleEntryRasWorks)
{
    BpredParams p;
    p.rasEntries = 1;
    BranchPredUnit bp(p);
    bp.predict(0x1000, callInst(0x5000));
    bp.predict(0x2000, callInst(0x6000)); // overwrites the only slot
    EXPECT_EQ(bp.predict(0x6100, returnInst()).predTarget, 0x2004u);
    EXPECT_EQ(bp.predict(0x5100, returnInst()).predTarget, 0x2004u);
}

// --- checkpoint slab vs full-copy snapshots ----------------------------

namespace
{

std::string
serialized(const BranchPredUnit &bp)
{
    CkptWriter w;
    bp.serialize(w);
    return w.data();
}

} // anonymous namespace

/**
 * The slab must behave exactly like the historical full-copy snapshot
 * (history register, RAS top and a copy of the whole RAS). The
 * reference keeps a full copy of the predictor per checkpoint; with no
 * training in between, restoring that copy is the full-copy semantics.
 * Call depth well beyond the RAS size wraps it, and squashes land at
 * random depths of the checkpoint stack (nested squashes), followed by
 * the core's squash repair.
 */
TEST(BpredCheckpoint, SlabMatchesFullCopySnapshots)
{
    BpredParams p;
    p.tableEntries = 1024;
    p.historyBits = 10;
    p.btbEntries = 64;
    p.rasEntries = 4;
    BranchPredUnit bp(p);
    BranchPredUnit ref(p);
    constexpr size_t SLOTS = 12;
    BpredCheckpointSlab slab = bp.makeCheckpointSlab(SLOTS);

    struct Live
    {
        size_t slot;
        BranchPredUnit snap; //!< full copy before this prediction
        Instr inst;
        Addr pc;
    };
    std::vector<Live> live;
    size_t next_slot = 0;
    uint64_t s = 12345;
    auto rnd = [&s](unsigned n) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>((s >> 33) % n);
    };
    Instr ret = returnInst();
    unsigned squashes = 0;
    unsigned max_depth = 0;
    int depth = 0;
    for (int step = 0; step < 4000; ++step) {
        if (!live.empty() && rnd(5) == 0) {
            // Squash at a random live checkpoint: restore it, drop the
            // younger ones, repair as the core does.
            size_t k = rnd(static_cast<unsigned>(live.size()));
            Live &l = live[k];
            bp.restore(slab, l.slot);
            ref = l.snap;
            bool taken = rnd(2) != 0;
            for (BranchPredUnit *u : {&bp, &ref}) {
                if (isCondBranch(l.inst.op))
                    u->forceHistoryBit(taken);
                if (isCall(l.inst.op))
                    u->redoCall(l.pc + 4);
                if (isReturn(l.inst))
                    u->redoReturn();
            }
            next_slot = (l.slot + 1) % SLOTS;
            live.resize(k + 1);
            ++squashes;
        } else {
            // Predict a new control instruction: calls dominate early
            // so the call depth exceeds the RAS and wraps it.
            Instr inst;
            unsigned kind = rnd(10);
            if (kind < 4) {
                inst = callInst(0x9000);
                ++depth;
            } else if (kind < 7) {
                inst = ret;
                --depth;
            } else {
                inst = condBr(0x3000);
            }
            max_depth = std::max(max_depth,
                                 static_cast<unsigned>(std::max(depth, 0)));
            if (live.size() == SLOTS)
                live.erase(live.begin()); // oldest commits
            Addr pc = 0x1000 + 4 * rnd(512);
            live.push_back(Live{next_slot, ref, inst, pc});
            bp.checkpoint(slab, next_slot);
            next_slot = (next_slot + 1) % SLOTS;
            BpredLookup a = bp.predict(pc, inst);
            BpredLookup b = ref.predict(pc, inst);
            ASSERT_EQ(a.predTaken, b.predTaken) << "step " << step;
            ASSERT_EQ(a.predTarget, b.predTarget) << "step " << step;
            ASSERT_EQ(a.ghrUsed, b.ghrUsed) << "step " << step;
        }
        ASSERT_EQ(serialized(bp), serialized(ref)) << "step " << step;
    }
    EXPECT_GT(squashes, 500u);
    EXPECT_GT(max_depth, 2 * p.rasEntries);
}
