/**
 * @file
 * CoreParams::validate(): every malformed machine the field table's
 * ranges and the table-geometry rules describe is rejected when the
 * core is built, with a panic naming the field and the rule, and every
 * configuration the simulator ships passes.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>
#include <string>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "fuzz/differential.hh"
#include "sim/configs.hh"

using namespace vpir;

namespace
{

/** validate()'s panic message for @p p ("" when it accepts). */
std::string
rejection(const CoreParams &p)
{
    PanicThrowScope throws;
    try {
        p.validate();
    } catch (const SimError &e) {
        return e.what();
    }
    return "";
}

struct BadMachine
{
    const char *why;
    std::function<void(CoreParams &)> corrupt;
};

const BadMachine BAD_MACHINES[] = {
    {"fetchWidth = 0 must be at least 1",
     [](CoreParams &p) { p.fetchWidth = 0; }},
    {"dispatchWidth = 0 must be at least 1",
     [](CoreParams &p) { p.dispatchWidth = 0; }},
    {"issueWidth = 0 must be at least 1",
     [](CoreParams &p) { p.issueWidth = 0; }},
    {"commitWidth = 0 must be at least 1",
     [](CoreParams &p) { p.commitWidth = 0; }},
    {"robEntries = 0 must be at least 1",
     [](CoreParams &p) { p.robEntries = 0; }},
    {"lsqEntries = 0 must be at least 1",
     [](CoreParams &p) { p.lsqEntries = 0; }},
    {"fetchQueueSize = 0 must be at least 1",
     [](CoreParams &p) { p.fetchQueueSize = 0; }},
    {"dcachePorts = 0 must be at least 1",
     [](CoreParams &p) { p.dcachePorts = 0; }},
    {"maxUnresolvedBranches = 0 must be at least 1",
     [](CoreParams &p) { p.maxUnresolvedBranches = 0; }},
    {"icache.sizeBytes = 100 must be a multiple of ways x lineBytes = 64",
     [](CoreParams &p) { p.icache.sizeBytes = 100; }},
    {"dcache.sizeBytes = 65568 must be a multiple of ways x lineBytes",
     [](CoreParams &p) { p.dcache.sizeBytes = 65568; }},
    {"vpt.confidenceThreshold = 4 must be at most 3",
     [](CoreParams &p) { p.vpt.confidenceThreshold = 4; }},
    // Table geometry.
    {"bpred.tableEntries = 1000 must be a power of two",
     [](CoreParams &p) { p.bpred.tableEntries = 1000; }},
    {"bpred.btbEntries = 3 must be a power of two",
     [](CoreParams &p) { p.bpred.btbEntries = 3; }},
    {"bpred.rasEntries = 0 must be at least 1",
     [](CoreParams &p) { p.bpred.rasEntries = 0; }},
    {"bpred.historyBits = 15 must be at most log2(bpred.tableEntries) = 14",
     [](CoreParams &p) { p.bpred.historyBits = 15; }},
    {"bpred.historyBits = 32 must be at most 31",
     [](CoreParams &p) { p.bpred.historyBits = 32; }},
    {"icache.lineBytes = 48 must be a power of two",
     [](CoreParams &p) { p.icache.lineBytes = 48; }},
    {"icache.ways = 0 must be at least 1",
     [](CoreParams &p) { p.icache.ways = 0; }},
    {"dcache.sizeBytes = 49152 must give a power-of-two number of sets, "
     "not 768",
     [](CoreParams &p) { p.dcache.sizeBytes = 49152; }},
    {"vpt.ways = 0 must be at least 1",
     [](CoreParams &p) { p.vpt.ways = 0; }},
    {"vpt.entries = 16384 must be a multiple of ways = 3",
     [](CoreParams &p) { p.vpt.ways = 3; }},
    {"vpt.entries = 12288 must give a power-of-two number of sets, not "
     "3072",
     [](CoreParams &p) { p.vpt.entries = 12288; }},
    {"rb.ways = 0 must be at least 1",
     [](CoreParams &p) { p.rb.ways = 0; }},
    {"rb.entries = 4096 must be a multiple of ways = 3",
     [](CoreParams &p) { p.rb.ways = 3; }},
    {"rb.entries = 3072 must give a power-of-two number of sets, not 768",
     [](CoreParams &p) { p.rb.entries = 3072; }},
};

} // anonymous namespace

TEST(CoreParamsValidate, RejectsEachMalformedMachineByName)
{
    for (const BadMachine &m : BAD_MACHINES) {
        CoreParams p = vpConfig(VpScheme::Lvp, ReexecPolicy::Single,
                                BranchResolution::NonSpeculative, 0);
        m.corrupt(p);
        EXPECT_NE(rejection(p).find(m.why), std::string::npos)
            << "want '" << m.why << "', got '" << rejection(p) << "'";
    }
}

TEST(CoreParamsValidate, CoreConstructorValidatesFirst)
{
    Assembler a;
    a.halt();
    Program prog = a.finish();
    for (const BadMachine &m : BAD_MACHINES) {
        CoreParams p = baseConfig();
        m.corrupt(p);
        PanicThrowScope throws;
        std::string msg;
        try {
            Core core(p, prog);
        } catch (const SimError &e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find(m.why), std::string::npos)
            << "want '" << m.why << "', got '" << msg << "'";
    }
}

TEST(CoreParamsValidate, ShippedConfigurationsPass)
{
    std::vector<CoreParams> configs = {baseConfig(), irConfig(),
                                       irConfig(IrValidation::Late)};
    for (VpScheme s : {VpScheme::Magic, VpScheme::Lvp}) {
        for (BranchResolution b : {BranchResolution::Speculative,
                                   BranchResolution::NonSpeculative}) {
            for (unsigned lat : {0u, 1u}) {
                configs.push_back(hybridConfig(s, b, lat));
                for (ReexecPolicy r :
                     {ReexecPolicy::Multiple, ReexecPolicy::Single})
                    configs.push_back(vpConfig(s, r, b, lat));
            }
        }
    }
    for (uint64_t seed = 0; seed < 500; ++seed)
        configs.push_back(fuzz::fuzzParamsForSeed(seed));
    for (const CoreParams &p : configs)
        EXPECT_EQ(rejection(p), "");
}

TEST(CoreParamsValidate, ThresholdAtTheCounterMaximumIsAccepted)
{
    CoreParams p = vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                            BranchResolution::Speculative, 0);
    p.vpt.confidenceThreshold = Vpt::Confidence::max();
    EXPECT_EQ(rejection(p), "");
}
