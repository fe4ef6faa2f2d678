/**
 * @file
 * Pins every value derived from the CoreParams and CoreStats field
 * tables to a literal: cell keys, the stats schema fingerprint (result
 * cache and checkpoint header), the stats JSON and the StatSet export.
 * A table edit that would move an existing cache key, orphan stored
 * results or change printed stats fails here instead of silently.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/ckpt_io.hh"
#include "sim/checkpoint.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"
#include "workload/workload.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

SweepCell
pinCell(const std::string &workload, CoreParams p)
{
    return SweepCell{workload, "pin", withLimits(p, 400000), {}};
}

/** A CoreStats whose every counter holds a distinct value. */
CoreStats
distinctStats()
{
    CoreStats st;
    uint64_t v = 11;
    forEachStatField(st, [&v](const char *, uint64_t &f) {
        f = v;
        v += 1013;
    });
    st.haltedCleanly = true;
    return st;
}

} // anonymous namespace

TEST(SchemaPins, ParamsHashAndCellKey)
{
    CoreParams checked = hybridConfig(VpScheme::Lvp,
                                      BranchResolution::NonSpeculative, 1);
    checked.warmupInsts = 150000;
    checked.checkRetire = true;
    checked.auditInvariants = true;
    checked.watchdogCycles = 100000;
    checked.faults.seed = 42;
    checked.faults.vptValueRate = 0.001;
    checked.faults.rbDropInvRate = 0.25;

    struct Pin
    {
        SweepCell cell;
        const char *params;
        const char *key;
    };
    const Pin pins[] = {
        {pinCell("compress", baseConfig()),
         "c105ac0e33d9eefb", "681b6c7720171efe"},
        {pinCell("gcc", irConfig()), "4387ca3e9ae96099",
         "12741ac830d617f5"},
        {pinCell("go", irConfig(IrValidation::Late)),
         "175db5cfc60e1a20", "46eb03c35d78c89f"},
        {pinCell("perl",
                 vpConfig(VpScheme::Lvp, ReexecPolicy::Single,
                          BranchResolution::NonSpeculative, 0)),
         "f1df00d7c49e847b", "ffe5b9d8e7cf7f8b"},
        {pinCell("ijpeg",
                 vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 1)),
         "cb652b173ae8ab5b", "753e367d9e0a4119"},
        {pinCell("vortex", hybridConfig()), "be311b710ac51a20",
         "157f61d289164131"},
        {pinCell("m88ksim", checked), "968b32c14fe2c375",
         "5f50f5bdc23f9785"},
    };
    for (const Pin &p : pins) {
        EXPECT_EQ(hex(hashParams(p.cell.params)), p.params)
            << p.cell.workload;
        EXPECT_EQ(hex(cellHash(p.cell)), p.key) << p.cell.workload;
    }
}

TEST(SchemaPins, StatsSchemaFingerprint)
{
    EXPECT_EQ(hex(statsSchemaFingerprint()), "b8c24bece0f32278");
}

TEST(SchemaPins, CheckpointCarriesTheStatsFingerprint)
{
    std::string dir = "schema_pins_ckpt";
    std::filesystem::remove_all(dir);
    CkptConfig cfg;
    cfg.insts = 2000;
    cfg.dir = dir;
    CkptCellId id;
    id.workload = "compress";
    id.cellKey = 1;
    id.paramsHash = 2;

    CoreParams p = withLimits(baseConfig(), 5000);
    p.ckptInsts = cfg.insts;
    WorkloadScale scale;
    scale.factor = 0.25;
    Simulator sim(p, makeWorkload("compress", scale).program);
    std::atomic<int> stop{1};
    CkptStopScope scope(&stop); // stop at the first persisted boundary
    ASSERT_TRUE(runWithCheckpoints(sim, cfg, id, false).stopped);

    std::string data;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(ent.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        data = ss.str();
    }
    // Header: 8-byte magic, u32 version, then the stats fingerprint.
    ASSERT_GT(data.size(), 20u);
    CkptReader r(data.data() + 12, 8);
    EXPECT_EQ(hex(r.u64()), "b8c24bece0f32278");
    std::filesystem::remove_all(dir);
}

TEST(SchemaPins, StatsJson)
{
    EXPECT_EQ(statsToJson(distinctStats()),
        "{\"cycles\": 11, \"committedInsts\": 1024, "
        "\"committedMemOps\": 2037, \"committedLoads\": 3050, "
        "\"committedStores\": 4063, \"executedInsts\": 5076, "
        "\"squashedExecuted\": 6089, \"squashedRecovered\": 7102, "
        "\"branchSquashes\": 8115, \"spuriousSquashes\": 9128, "
        "\"condBranches\": 10141, \"condMispredicted\": 11154, "
        "\"returns\": 12167, \"returnMispredicted\": 13180, "
        "\"branchResLatSum\": 14193, \"branchResCount\": 15206, "
        "\"resourceRequests\": 16219, \"resourceDenied\": 17232, "
        "\"execCountHist0\": 18245, \"execCountHist1\": 19258, "
        "\"execCountHist2\": 20271, \"execCountHist3\": 21284, "
        "\"reusedResults\": 22297, \"reusedAddrs\": 23310, "
        "\"reusedControl\": 24323, \"resolvableControl\": 25336, "
        "\"vpResultPredicted\": 26349, \"vpResultCorrect\": 27362, "
        "\"vpResultWrong\": 28375, \"vpAddrPredicted\": 29388, "
        "\"vpAddrCorrect\": 30401, \"vpAddrWrong\": 31414, "
        "\"valueMispredictEvents\": 32427, "
        "\"icacheAccesses\": 33440, \"icacheMisses\": 34453, "
        "\"dcacheAccesses\": 35466, \"dcacheMisses\": 36479, "
        "\"checkedInsts\": 37492, \"faultsVptValue\": 38505, "
        "\"faultsVptConf\": 39518, \"faultsRbOperand\": 40531, "
        "\"faultsRbResult\": 41544, \"faultsRbLink\": 42557, "
        "\"faultsRbDropInv\": 43570, \"haltedCleanly\": 1}");
}

TEST(SchemaPins, StatSetExport)
{
    StatSet out;
    distinctStats().exportTo(out);
    EXPECT_EQ(out.dump(),
        "branch_res_count                         15206\n"
        "branch_res_lat_avg                       0.933382\n"
        "branch_res_lat_sum                       14193\n"
        "branch_squashes                          8115\n"
        "checked_insts                            37492\n"
        "committed_insts                          1024\n"
        "committed_loads                          3050\n"
        "committed_mem_ops                        2037\n"
        "committed_stores                         4063\n"
        "cond_branches                            10141\n"
        "cond_mispredicted                        11154\n"
        "cycles                                   11\n"
        "dcache_accesses                          35466\n"
        "dcache_misses                            36479\n"
        "exec_count_1                             18245\n"
        "exec_count_2                             19258\n"
        "exec_count_3                             20271\n"
        "exec_count_4                             21284\n"
        "executed_insts                           5076\n"
        "faults_rb_dropinv                        43570\n"
        "faults_rb_link                           42557\n"
        "faults_rb_operand                        40531\n"
        "faults_rb_result                         41544\n"
        "faults_vpt_conf                          39518\n"
        "faults_vpt_value                         38505\n"
        "halted_cleanly                           1\n"
        "icache_accesses                          33440\n"
        "icache_misses                            34453\n"
        "ipc                                      93.0909\n"
        "resolvable_control                       25336\n"
        "resource_contention                      1.06246\n"
        "resource_denied                          17232\n"
        "resource_requests                        16219\n"
        "return_mispredicted                      13180\n"
        "returns                                  12167\n"
        "reused_addrs                             23310\n"
        "reused_control                           24323\n"
        "reused_results                           22297\n"
        "spurious_squashes                        9128\n"
        "squashed_executed                        6089\n"
        "squashed_recovered                       7102\n"
        "value_mispredict_events                  32427\n"
        "vp_addr_correct                          30401\n"
        "vp_addr_predicted                        29388\n"
        "vp_addr_wrong                            31414\n"
        "vp_result_correct                        27362\n"
        "vp_result_predicted                      26349\n"
        "vp_result_wrong                          28375\n");
}
