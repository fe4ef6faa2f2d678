#include "sweep/stats_json.hh"

#include <cinttypes>
#include <cstdio>

#include "common/fnv_json.hh"

namespace vpir
{
namespace sweep
{

std::string
statsToJson(const CoreStats &st)
{
    std::string out = "{";
    forEachStatRow(st, [&out](const char *name, const char *,
                              const auto &v) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                      out.size() > 1 ? ", " : "", name,
                      static_cast<uint64_t>(v));
        out += buf;
    });
    out += "}";
    return out;
}

bool
statsFromJson(const std::string &json, CoreStats &out)
{
    CoreStats tmp;
    bool ok = true;
    forEachStatRow(tmp, [&](const char *name, const char *, auto &v) {
        uint64_t u = 0;
        ok = ok && jsonFieldU64(json, name, u);
        if constexpr (isStatFlag<decltype(v)>) {
            ok = ok && u <= 1;
            v = u != 0;
        } else {
            v = u;
        }
    });
    if (!ok)
        return false;
    out = tmp;
    return true;
}

bool
statsEqual(const CoreStats &a, const CoreStats &b)
{
    // The serialization covers every counter, so textual equality is
    // exact equality (and mismatches are easy to diff in test logs).
    return statsToJson(a) == statsToJson(b);
}

} // namespace sweep
} // namespace vpir
