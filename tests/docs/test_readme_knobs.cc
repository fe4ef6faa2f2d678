/**
 * @file
 * The README's environment-knob table and the code stay in step:
 * every "VPIR_*" name the simulator, tools or bench harnesses read has
 * a table row, and every row names a variable something still reads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace fs = std::filesystem;

namespace
{

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every quoted "VPIR_*" string literal under src/, tools/, bench/. */
std::set<std::string>
namesReadInCode()
{
    const std::regex literal("\"(VPIR_[A-Z0-9_]+)\"");
    std::set<std::string> names;
    for (const char *dir : {"src", "tools", "bench"}) {
        for (const auto &ent :
             fs::recursive_directory_iterator(fs::path(SOURCE_ROOT) / dir)) {
            if (!ent.is_regular_file())
                continue;
            std::string text = slurp(ent.path());
            for (std::sregex_iterator it(text.begin(), text.end(), literal),
                 end;
                 it != end; ++it)
                names.insert((*it)[1]);
        }
    }
    return names;
}

/** The variable of every "| `VPIR_*` |" row of the README table. */
std::set<std::string>
readmeRows()
{
    const std::regex row("^\\| `(VPIR_[A-Z0-9_]+)` \\|");
    std::set<std::string> names;
    std::istringstream in(slurp(fs::path(SOURCE_ROOT) / "README.md"));
    std::smatch m;
    for (std::string line; std::getline(in, line);) {
        if (std::regex_search(line, m, row))
            names.insert(m[1]);
    }
    return names;
}

} // anonymous namespace

TEST(ReadmeKnobs, TableMatchesTheVariablesTheCodeReads)
{
    std::set<std::string> code = namesReadInCode();
    std::set<std::string> rows = readmeRows();
    // Guard against a scan that silently found nothing on either side.
    ASSERT_GE(code.size(), 40u);
    ASSERT_GE(rows.size(), 40u);
    for (const std::string &name : code)
        EXPECT_TRUE(rows.count(name)) << name << " has no README row";
    for (const std::string &name : rows)
        EXPECT_TRUE(code.count(name)) << name << " is no longer read";
}
