/**
 * @file
 * The experiment manifest is well formed and agrees with perfbench's
 * own cell list. The union of every experiment's cells at the
 * harnesses' default size (400K instructions, scale 1.0, no
 * environment overrides) must have exactly the cell keys of the
 * "paper-sweep full" rows of perfbench/reference.txt: a harness that
 * gains or loses a cell the benchmark does not also gain or lose fails
 * here.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "bench/experiments.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // anonymous namespace

TEST(BenchManifest, CellsMatchPerfbenchReference)
{
    std::map<uint64_t, std::string> manifest; // key -> "program/label"
    bool limitStudy = false;
    for (const Experiment &e : experiments()) {
        limitStudy |= e.limitStudy;
        for (const sweep::SweepCell &c :
             sweepCells(e, 400000, WorkloadScale{}))
            manifest.emplace(sweep::cellHash(c), c.workload + "/" + c.label);
    }

    // Rows: <workload> <full|tiny> <cell key> <stats digest> <label>.
    std::ifstream in(SOURCE_ROOT "/perfbench/reference.txt");
    ASSERT_TRUE(in) << "cannot read perfbench/reference.txt";
    std::map<uint64_t, std::string> reference;
    std::set<std::string> studied;
    for (std::string line; std::getline(in, line);) {
        std::istringstream ls(line);
        std::string workload, size, key, digest, label;
        if (!(ls >> workload >> size >> key >> digest >> label) ||
            workload != "paper-sweep" || size != "full")
            continue;
        if (endsWith(label, "/redundancy"))
            studied.insert(label.substr(0, label.find('/')));
        else
            reference.emplace(std::stoull(key, nullptr, 16), label);
    }
    ASSERT_EQ(reference.size(), 166u);

    for (const auto &[key, label] : manifest)
        EXPECT_TRUE(reference.count(key))
            << label << " is in the manifest but not in perfbench";
    for (const auto &[key, label] : reference)
        EXPECT_TRUE(manifest.count(key))
            << label << " is in perfbench but in no experiment";

    // The limit study runs on every program, as perfbench's does.
    EXPECT_TRUE(limitStudy);
    EXPECT_EQ(studied, std::set<std::string>(workloadNames().begin(),
                                             workloadNames().end()));
}

TEST(BenchManifest, EachProgramLabelNamesOneCell)
{
    for (const Experiment &e : experiments()) {
        std::set<std::pair<std::string, std::string>> seen;
        for (const sweep::SweepCell &c :
             sweepCells(e, 400000, WorkloadScale{}))
            EXPECT_TRUE(seen.insert({c.workload, c.label}).second)
                << e.name << " lists " << c.workload << "/" << c.label
                << " twice";
        EXPECT_TRUE(e.print) << e.name << " has no print()";
    }
}

TEST(BenchManifest, EveryExperimentHasABinary)
{
    // The list CMake builds bench_<name> binaries from.
    std::ifstream in(EXPERIMENTS_TXT);
    ASSERT_TRUE(in) << "cannot read " << EXPERIMENTS_TXT;
    std::vector<std::string> built;
    for (std::string name; std::getline(in, name);)
        built.push_back(name);
    std::vector<std::string> manifest;
    for (const Experiment &e : experiments())
        manifest.push_back(e.name);
    EXPECT_EQ(built, manifest);
}
