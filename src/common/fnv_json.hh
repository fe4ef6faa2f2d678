/**
 * @file
 * The two primitives the field tables (core/params.hh,
 * core/core_stats.hh) are folded with: FNV-1a, for cell keys, schema
 * fingerprints and state digests, and the flat-JSON field scanners
 * and string codec, for result-cache files, repro bundles and
 * isolated-cell payloads.
 */

#ifndef VPIR_COMMON_FNV_JSON_HH
#define VPIR_COMMON_FNV_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace vpir
{
namespace fnv
{

constexpr uint64_t OFFSET = 0xcbf29ce484222325ull;
constexpr uint64_t PRIME = 0x100000001b3ull;

inline void
mixByte(uint64_t &h, unsigned char b)
{
    h ^= b;
    h *= PRIME;
}

/** Mix the eight bytes of @p v, least significant first. */
inline void
mixU64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        mixByte(h, static_cast<unsigned char>(v >> (8 * i)));
}

inline void
mixBytes(uint64_t &h, std::string_view s)
{
    for (char c : s)
        mixByte(h, static_cast<unsigned char>(c));
}

/** Mix a field name and a '\n' separator, so "ab","c" != "a","bc". */
inline void
mixName(uint64_t &h, std::string_view name)
{
    mixBytes(h, name);
    mixByte(h, '\n');
}

/**
 * Schema fingerprint of a field table: FNV-1a over its field names in
 * table order. @p visit receives a mix(const char *name) callback and
 * calls it once per field.
 */
template <typename Visit>
uint64_t
schemaFingerprint(Visit &&visit)
{
    uint64_t h = OFFSET;
    visit([&h](const char *name) { mixName(h, name); });
    return h;
}

} // namespace fnv

/**
 * Find the first `"name"` key of a flat JSON object and parse the
 * unsigned decimal after its colon. @return false, leaving @p out
 * untouched, when the key is missing, its value is not a digit
 * string, or the value exceeds 2^64-1.
 */
bool jsonFieldU64(std::string_view json, std::string_view name,
                  uint64_t &out);

/** @p s as the body of a JSON string: quotes and backslashes escaped,
 *  newline, tab and carriage return as \n \t \r, every other control
 *  character as \u00XX. Other bytes pass through. */
std::string jsonEscape(std::string_view s);

/**
 * Find the first `"name"` key of a flat JSON object and unescape the
 * string after its colon (jsonEscape()'s inverse; a \uXXXX escape
 * keeps its low byte). @return false when the key is missing, its
 * value is not a string, the string is unterminated, or it holds an
 * escape jsonEscape() never writes.
 */
bool jsonFieldString(std::string_view json, std::string_view name,
                     std::string &out);

} // namespace vpir

#endif // VPIR_COMMON_FNV_JSON_HH
