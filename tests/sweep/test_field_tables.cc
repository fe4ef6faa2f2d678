/**
 * @file
 * Input hardening of the field-table folds: the flat-JSON u64 scanner
 * rejects values above 2^64-1, and paramsFromJson()/statsFromJson()
 * reject any value its field cannot hold, leaving the output
 * untouched. Row-driven, so a new table row is covered automatically.
 * Also the flat-JSON string codec shared by repro bundles and isolated
 * cell payloads: every ASCII byte round-trips.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/fnv_json.hh"
#include "sim/configs.hh"
#include "sweep/params_json.hh"
#include "sweep/stats_json.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

const char *const U64_MAX_TEXT = "18446744073709551615";

/** @p json with the value of field @p name replaced by @p value. */
std::string
withValue(std::string json, const std::string &name,
          const std::string &value)
{
    std::string key = "\"" + name + "\": ";
    size_t pos = json.find(key);
    EXPECT_NE(pos, std::string::npos) << name;
    pos += key.size();
    size_t end = json.find_first_not_of("0123456789", pos);
    return json.replace(pos, end - pos, value);
}

/** A configuration unlike the default in every enum and most knobs,
 *  so an untouched output is distinguishable from a reset one. */
CoreParams
sampleParams()
{
    CoreParams p = hybridConfig(VpScheme::Lvp,
                                BranchResolution::NonSpeculative, 1);
    p.reexec = ReexecPolicy::Single;
    p.irValidation = IrValidation::Late;
    p.maxInsts = 123456;
    p.faults.vptConfRate = 0.5;
    return p;
}

} // anonymous namespace

TEST(JsonFieldU64, ParsesUpToTheLargestU64AndNoFurther)
{
    uint64_t v = 7;
    EXPECT_TRUE(jsonFieldU64(std::string("{\"a\": ") + U64_MAX_TEXT + "}",
                             "a", v));
    EXPECT_EQ(v, UINT64_MAX);

    v = 7;
    EXPECT_FALSE(jsonFieldU64("{\"a\": 18446744073709551616}", "a", v));
    EXPECT_FALSE(jsonFieldU64("{\"a\": 99999999999999999999}", "a", v));
    EXPECT_FALSE(jsonFieldU64("{\"a\": -1}", "a", v));
    EXPECT_FALSE(jsonFieldU64("{\"a\": }", "a", v));
    EXPECT_FALSE(jsonFieldU64("{\"b\": 1}", "a", v));
    EXPECT_EQ(v, 7u);
}

TEST(JsonFieldU64, MatchesOnlyTheWholeQuotedKey)
{
    uint64_t v = 0;
    ASSERT_TRUE(jsonFieldU64(
        "{\"faults.seed\": 5, \"seedling\": 6, \"seed\": 7}", "seed", v));
    EXPECT_EQ(v, 7u);
}

TEST(JsonString, EveryAsciiByteQuoteAndBackslashRoundTrips)
{
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c)
        all += static_cast<char>(c);
    for (const std::string &s :
         {all, std::string("\"\\\"\\\\\""), std::string("\\u0041"),
          std::string(), std::string("line\nnext\ttab\rret\x1f\x7f")}) {
        const std::string esc = jsonEscape(s);
        for (char c : esc)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20) << esc;
        const std::string json =
            "{\"x\": \"decoy\", \"s\": \"" + esc + "\", \"t\": 1}";
        std::string back = "untouched";
        ASSERT_TRUE(jsonFieldString(json, "s", back)) << json;
        EXPECT_EQ(back, s) << json;
    }
    // Control characters other than \n \t \r travel as \u00XX.
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonString, RejectsMalformedStringsLeavingTheOutputUntouched)
{
    for (const char *json :
         {"{\"s\": 5}", "{\"t\": \"x\"}", "{\"s\": \"open",
          "{\"s\": \"bad \\q escape\"}", "{\"s\": \"\\u00g1\"}",
          "{\"s\": \"\\u00", "{\"s\": \"trailing\\"}) {
        std::string out = "untouched";
        EXPECT_FALSE(jsonFieldString(json, "s", out)) << json;
        EXPECT_EQ(out, "untouched") << json;
    }
}

TEST(ParamsJson, EveryRowRejectsAValueItsFieldCannotHold)
{
    const CoreParams sample = sampleParams();
    const std::string json = paramsToJson(sample);
    int rows = 0;
    forEachParamField(sample, [&](const ParamRow &row, uint64_t) {
        ++rows;
        // One past the field's capacity, or 2^64 where the field
        // holds every u64.
        std::string bad = row.cap == UINT64_MAX
                              ? "18446744073709551616"
                              : std::to_string(row.cap + 1);
        CoreParams out = baseConfig();
        out.robEntries = 77;
        std::string before = paramsToJson(out);
        EXPECT_FALSE(paramsFromJson(withValue(json, row.name, bad), out))
            << row.name << " = " << bad;
        EXPECT_EQ(paramsToJson(out), before) << row.name;

        // The capacity itself still parses, into exactly that value.
        std::string at_cap = std::to_string(row.cap);
        ASSERT_TRUE(
            paramsFromJson(withValue(json, row.name, at_cap), out))
            << row.name;
        forEachParamField(out, [&](const ParamRow &r, uint64_t v) {
            if (std::string(r.name) == row.name) {
                EXPECT_EQ(v, row.cap) << row.name;
            }
        });
    });
    EXPECT_EQ(rows, 51);
}

TEST(ParamsJson, RejectsTheProbedOverflows)
{
    const std::string json = paramsToJson(sampleParams());
    CoreParams out;
    // 2^32 + 32 used to wrap to 32, 2^64 + 1 to 1, and technique 9
    // was stored as an enum value with no enumerator.
    EXPECT_FALSE(paramsFromJson(withValue(json, "robEntries", "4294967328"),
                                out));
    EXPECT_FALSE(paramsFromJson(withValue(json, "technique", "9"), out));
    EXPECT_FALSE(paramsFromJson(
        withValue(json, "maxCycles", "18446744073709551617"), out));
    EXPECT_FALSE(paramsFromJson(withValue(json, "vpPredictResults", "2"),
                                out));
    EXPECT_TRUE(paramsEqual(out, CoreParams()));
}

TEST(StatsJson, EveryRowRejectsAValueItsFieldCannotHold)
{
    CoreStats sample;
    uint64_t next = 1;
    forEachStatField(sample, [&next](const char *, uint64_t &v) {
        v = next++;
    });
    sample.haltedCleanly = true;
    const std::string json = statsToJson(sample);

    int rows = 0;
    forEachStatRow(sample, [&](const char *name, const char *,
                               const auto &v) {
        ++rows;
        std::string bad = isStatFlag<decltype(v)>
                              ? "2"
                              : "18446744073709551621"; // 2^64 + 5
        CoreStats out;
        out.cycles = 99;
        EXPECT_FALSE(statsFromJson(withValue(json, name, bad), out))
            << name;
        EXPECT_EQ(out.cycles, 99u) << name;
        EXPECT_FALSE(out.haltedCleanly) << name;
    });
    EXPECT_EQ(rows, 45);

    CoreStats back;
    ASSERT_TRUE(statsFromJson(json, back));
    EXPECT_TRUE(statsEqual(back, sample));
}
