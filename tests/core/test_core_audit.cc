/**
 * @file
 * Cycle-level invariant audit tests: VPIR_AUDIT must be pure
 * observation (bit-identical stats and scheduler trajectory on every
 * technique) and must catch planted corruption of every invariant
 * family at the cycle it happens.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "fuzz/differential.hh"
#include "fuzz/generator.hh"
#include "sim/configs.hh"
#include "sweep/stats_json.hh"
#include "workload/workload.hh"

using namespace vpir;

namespace vpir
{

/**
 * Test-only window into Core's scheduler structures. Each plant*()
 * looks for a target whose corruption the next cycle cannot repair —
 * no squash can happen in it, and the touched entries can neither
 * complete, finalize nor commit in it — plants exactly one corruption
 * and returns true; false means "no target this cycle".
 */
struct CoreAuditProbe
{
    using Plant = bool (*)(Core &);

    static bool
    alive(const Core &c, const RobRef &r)
    {
        return r.valid() && c.at(r.slot).valid && c.at(r.slot).seq == r.seq;
    }

    /** Current value of @p reg as produced by @p p. */
    static uint64_t
    valueOf(const RobEntry &p, RegId reg)
    {
        return p.inst.rd2 != REG_INVALID && reg == p.inst.rd2
                   ? p.curResult2
                   : p.curResult;
    }

    static bool
    completesNext(const Core &c, const RobEntry &e)
    {
        return e.inFlight && e.completeAt <= c.now();
    }

    /** Not executed, not executing: cannot publish, finalize or
     *  commit next cycle. */
    static bool
    quiet(const RobEntry &e)
    {
        return e.needsExec && !e.executedOnce && !e.inFlight &&
               !e.finalized;
    }

    /** Only control resolution squashes in the configs used here. */
    static bool
    squashFree(const Core &c)
    {
        bool ok = true;
        c.forEachInOrder([&](int s) {
            const RobEntry &e = c.at(s);
            if (e.isCtrl && e.resolvable &&
                (e.pendingResolve || completesNext(c, e) ||
                 (e.finalized && !e.finalActionDone)))
                ok = false;
            return ok;
        });
        return ok;
    }

    /** First live slot, oldest-first, satisfying @p pred; -1 if none. */
    template <typename Pred>
    static int
    find(const Core &c, Pred pred)
    {
        int hit = -1;
        c.forEachInOrder([&](int s) {
            if (pred(c.at(s), s))
                hit = s;
            return hit < 0;
        });
        return hit;
    }

    static bool
    dropReadyMember(Core &c)
    {
        if (!squashFree(c))
            return false;
        // No live producer: nothing can wake the entry back in.
        int s = find(c, [&](const RobEntry &e, int slot) {
            return c.readySet.test(slot) && quiet(e) &&
                   !alive(c, e.srcRob[0]) && !alive(c, e.srcRob[1]);
        });
        if (s < 0)
            return false;
        c.readySet.erase(s);
        return true;
    }

    static bool
    dropCtrlMember(Core &c)
    {
        if (!squashFree(c))
            return false;
        int s = find(c, [&](const RobEntry &, int slot) {
            return c.ctrlSet.test(slot);
        });
        if (s < 0)
            return false;
        c.ctrlSet.erase(s);
        return true;
    }

    /** Brute scheduler: every completed, unfinalized entry is a
     *  finalize candidate. The target waits on an operand whose
     *  producer is still executing, and no producer of it publishes
     *  next cycle, so it neither finalizes nor re-issues. */
    static bool
    dropFinalizeCandidate(Core &c)
    {
        if (!squashFree(c))
            return false;
        int s = find(c, [&](const RobEntry &e, int slot) {
            if (!c.finalCand.test(slot) || !e.needsExec ||
                !e.executedOnce || e.inFlight || e.finalized)
                return false;
            if (e.isLd && e.curMemAddr != e.exec.out.memAddr)
                return false;
            bool waits = false;
            for (int k = 0; k < 2; ++k) {
                if (e.srcReg[k] == REG_ZERO)
                    continue;
                uint64_t v = e.exec.srcVals[k];
                if (alive(c, e.srcRob[k])) {
                    const RobEntry &p = c.at(e.srcRob[k].slot);
                    if (completesNext(c, p))
                        return false;
                    waits = waits || p.inFlight;
                    v = valueOf(p, e.srcReg[k]);
                }
                if (v != e.usedVals[k])
                    return false;
            }
            return waits;
        });
        if (s < 0)
            return false;
        c.finalCand.erase(s);
        return true;
    }

    /** A quiet consumer linked to a quiet producer on some operand;
     *  returns the waiter node id or -1. */
    static int
    quietLink(const Core &c)
    {
        if (!squashFree(c))
            return -1;
        int id = -1;
        find(c, [&](const RobEntry &e, int slot) {
            if (!quiet(e))
                return false;
            for (int k = 0; k < 2; ++k) {
                const Core::OpWaiter &w = c.waiters[slot * 2 + k];
                if (w.prodSlot >= 0 && !w.availSeen &&
                    quiet(c.at(w.prodSlot))) {
                    id = slot * 2 + k;
                    return true;
                }
            }
            return false;
        });
        return id;
    }

    static bool
    unlinkLiveWaiter(Core &c)
    {
        int id = quietLink(c);
        if (id < 0)
            return false;
        c.unlinkWaiter(id / 2, id % 2);
        return true;
    }

    static bool
    flipAvailSeen(Core &c)
    {
        int id = quietLink(c);
        if (id < 0)
            return false;
        c.waiters[id].availSeen = true;
        return true;
    }

    static bool
    bumpPendingOps(Core &c)
    {
        if (!squashFree(c))
            return false;
        int s = find(c, [](const RobEntry &e, int) { return quiet(e); });
        if (s < 0)
            return false;
        ++c.at(s).pendingOps;
        return true;
    }

    static bool
    swapOrderEntries(Core &c)
    {
        if (!squashFree(c))
            return false;
        for (size_t i = c.orderHead; i + 1 < c.orderList.size(); ++i) {
            if (quiet(c.at(c.orderList[i])) &&
                quiet(c.at(c.orderList[i + 1]))) {
                std::swap(c.orderList[i], c.orderList[i + 1]);
                return true;
            }
        }
        return false;
    }

    /** The slot just behind the head is the last one dispatch
     *  reallocates; with room for a full dispatch group it stays dead
     *  next cycle. */
    static bool
    linkDeadSlotWaiter(Core &c)
    {
        if (c.robUsed + c.params.dispatchWidth >= c.params.robEntries)
            return false;
        int n = static_cast<int>(c.params.robEntries);
        int dead = (c.robHead + n - 1) % n;
        c.waiters[dead * 2].prodSlot = c.robHead;
        return true;
    }

    static bool
    bumpBpSlotNext(Core &c)
    {
        // A control instruction in the fetch queue stays live next
        // cycle; without a squash nothing rewinds the cursor.
        bool fq_ctrl = false;
        for (const FetchedInst &f : c.fetchQueue)
            fq_ctrl = fq_ctrl || f.isCtrl;
        if (!fq_ctrl || !squashFree(c))
            return false;
        if (++c.bpSlotNext == c.bpSlab.slots())
            c.bpSlotNext = 0;
        return true;
    }

    static bool
    bumpUnresolvedCtrl(Core &c)
    {
        if (c.robUnresolvedCtrl == 0)
            return false;
        ++c.robUnresolvedCtrl;
        return true;
    }

    static bool
    bumpFqResolvable(Core &c)
    {
        // A squash would clear the fetch queue and its counter.
        if (c.fqResolvable == 0 || !squashFree(c))
            return false;
        ++c.fqResolvable;
        return true;
    }

    /** Zero the serial of the first valid RB entry. Refreshing the
     *  entry keeps the bad serial; only its eviction would repair it. */
    static bool
    zeroRbSerial(Core &c)
    {
        for (ReuseBuffer::Entry &e : c.rb.entries) {
            if (e.valid) {
                e.serial = 0;
                return true;
            }
        }
        return false;
    }
};

} // namespace vpir

namespace
{

struct AuditedRun
{
    CoreStats stats;
    uint64_t cyclesRun = 0;
    uint64_t idleSkipped = 0;
};

AuditedRun
runProgram(CoreParams p, const Program &program, bool audit)
{
    p.auditInvariants = audit;
    Core core(p, program);
    AuditedRun r;
    r.stats = core.run();
    r.cyclesRun = core.schedProfile().cyclesRun;
    r.idleSkipped = core.schedProfile().idleSkippedCycles;
    return r;
}

CoreStats
runWith(CoreParams p, bool audit)
{
    p.maxInsts = 20000;
    Workload w = makeWorkload("compress", WorkloadScale{});
    return runProgram(p, w.program, audit).stats;
}

/** The audit's operand views may record idle-skip wake hints, so
 *  equal stats alone would not show it leaves the scheduler alone. */
void
expectPureObservation(const CoreParams &p, const Program &program,
                      const std::string &label)
{
    AuditedRun off = runProgram(p, program, false);
    AuditedRun on = runProgram(p, program, true);
    EXPECT_TRUE(sweep::statsEqual(off.stats, on.stats))
        << label << ": audit changed the stats:\n"
        << sweep::statsToJson(off.stats) << "\nvs\n"
        << sweep::statsToJson(on.stats);
    EXPECT_EQ(off.cyclesRun, on.cyclesRun) << label;
    EXPECT_EQ(off.idleSkipped, on.idleSkipped) << label;
}

/** Sets an environment variable for the scope's lifetime. */
struct ScopedEnv
{
    const char *name;
    ScopedEnv(const char *n, const char *v) : name(n) { setenv(n, v, 1); }
    ~ScopedEnv() { unsetenv(name); }
};

/**
 * Run compress under @p p until @p plant finds a target and corrupts
 * it, then run one more cycle: its audit must fail with @p what.
 */
void
expectAuditCatches(CoreParams p, CoreAuditProbe::Plant plant,
                   const std::string &what)
{
    PanicThrowScope throws_;
    p.auditInvariants = true;
    p.maxInsts = 20000;
    Workload w = makeWorkload("compress", WorkloadScale{});
    Core core(p, w.program);
    while (core.cycle()) {
        if (!plant(core))
            continue;
        uint64_t planted = core.now();
        try {
            core.cycle();
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("audit: " + what),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(
                          "(cycle " + std::to_string(planted) + ","),
                      std::string::npos)
                << "not caught at the cycle after the corruption: "
                << e.what();
            return;
        }
        FAIL() << "audit missed the corruption planted before cycle "
               << planted;
        return;
    }
    FAIL() << "the run never offered a target for the corruption";
}

} // namespace

TEST(CoreAudit, PureObservationOnEveryTechnique)
{
    const std::pair<const char *, CoreParams> configs[] = {
        {"base", baseConfig()},
        {"ir", irConfig(IrValidation::Early)},
        {"ir-late", irConfig(IrValidation::Late)},
        {"vp-magic-me-sb",
         vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                  BranchResolution::Speculative, 0)},
        {"vp-lvp-nme-nsb",
         vpConfig(VpScheme::Lvp, ReexecPolicy::Single,
                  BranchResolution::NonSpeculative, 1)},
        {"hybrid", hybridConfig()},
    };
    Workload w = makeWorkload("compress", WorkloadScale{});
    for (const auto &[label, config] : configs) {
        CoreParams p = config;
        p.maxInsts = 20000;
        expectPureObservation(p, w.program, label);
    }

    // fuzzParamsForSeed's first draw picks one of eight technique
    // mixes; run the first seed of each on its generated program.
    bool seen[8] = {};
    unsigned found = 0;
    for (uint64_t seed = 1; found < 8 && seed < 1000; ++seed) {
        uint64_t mix = Rng(seed, 0xc0f1).below(8);
        if (seen[mix])
            continue;
        seen[mix] = true;
        ++found;
        expectPureObservation(fuzz::fuzzParamsForSeed(seed),
                              fuzz::generateProgram(seed),
                              "fuzz mix " + std::to_string(mix) +
                                  " (seed " + std::to_string(seed) + ")");
    }
    EXPECT_EQ(found, 8u);
}

TEST(CoreAudit, CatchesPlantedConservationViolation)
{
    PanicThrowScope throws_;
    setenv("VPIR_TEST_AUDIT_CLOBBER", "150", 1);
    try {
        CoreStats st = runWith(baseConfig(), true);
        unsetenv("VPIR_TEST_AUDIT_CLOBBER");
        FAIL() << "audit missed the planted corruption (run finished "
                  "with "
               << st.committedInsts << " insts)";
    } catch (const SimError &e) {
        unsetenv("VPIR_TEST_AUDIT_CLOBBER");
        EXPECT_NE(std::string(e.what()).find("audit: conservation"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CoreAudit, CleanWithoutClobber)
{
    // The audited run completes; the clobber-free audit never fires.
    CoreStats st = runWith(irConfig(), true);
    EXPECT_GT(st.committedInsts, 0u);
}

// One planted corruption per invariant family the per-cycle audit
// checks; each must be reported, with its own message, by the audit
// of the very next cycle.

TEST(CoreAuditFamilies, DroppedReadySetMember)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::dropReadyMember,
                       "actionable entry missing from the ready set");
}

TEST(CoreAuditFamilies, DroppedControlSetMember)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::dropCtrlMember,
                       "unresolved control missing from the control set");
}

TEST(CoreAuditFamilies, DroppedFinalizeCandidate)
{
    ScopedEnv brute("VPIR_SCHED_BRUTE", "1");
    expectAuditCatches(vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                BranchResolution::Speculative, 0),
                       CoreAuditProbe::dropFinalizeCandidate,
                       "completed entry missing from the "
                       "finalize-candidate set");
}

TEST(CoreAuditFamilies, UnlinkedLiveWaiter)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::unlinkLiveWaiter,
                       "unlinked operand with a live producer");
}

TEST(CoreAuditFamilies, FlippedAvailSeen)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::flipAvailSeen,
                       "waiter availSeen disagrees with the operand view");
}

TEST(CoreAuditFamilies, BumpedPendingOps)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::bumpPendingOps,
                       "pendingOps disagrees with the unseen waiter "
                       "count");
}

TEST(CoreAuditFamilies, SwappedOrderListEntries)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::swapOrderEntries,
                       "order list diverged from the ROB ring walk");
}

TEST(CoreAuditFamilies, DeadSlotWaiterLeftLinked)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::linkDeadSlotWaiter,
                       "waiter node of dead slot");
}

TEST(CoreAuditFamilies, BumpedCheckpointCursor)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::bumpBpSlotNext,
                       "checkpoint slot ");
}

TEST(CoreAuditFamilies, BumpedUnresolvedControlCounter)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::bumpUnresolvedCtrl,
                       "unresolved-control counter");
}

TEST(CoreAuditFamilies, BumpedFetchQueueResolvableCounter)
{
    expectAuditCatches(baseConfig(), CoreAuditProbe::bumpFqResolvable,
                       "fetch-queue resolvable counter");
}

TEST(CoreAuditFamilies, CorruptReuseBufferEntryCaughtAtCellEnd)
{
    // The table sweep runs every 4096 cycles, so a cell this short
    // gets only the end-of-cell sweep: it must report the entry.
    PanicThrowScope throws_;
    CoreParams p = irConfig();
    p.auditInvariants = true;
    p.maxInsts = 2000;
    Workload w = makeWorkload("compress", WorkloadScale{});
    Core core(p, w.program);
    bool planted = false;
    try {
        while (core.cycle())
            planted = planted || CoreAuditProbe::zeroRbSerial(core);
    } catch (const SimError &e) {
        EXPECT_TRUE(planted);
        EXPECT_LT(core.now(), 4096u);
        EXPECT_NE(std::string(e.what()).find(
                      "serial outside the issued range"),
                  std::string::npos)
            << e.what();
        return;
    }
    FAIL() << "no sweep caught the corrupted RB entry (planted: "
           << planted << ", " << core.now() << " cycles)";
}
