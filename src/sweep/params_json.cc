#include "sweep/params_json.hh"

#include <cinttypes>
#include <cstdio>

#include "common/fnv_json.hh"

namespace vpir
{
namespace sweep
{

uint64_t
paramsSchemaFingerprint()
{
    static const uint64_t fp = fnv::schemaFingerprint([](auto &&mix) {
        CoreParams tmp;
        forEachParamField(tmp, [&mix](const ParamRow &row, uint64_t) {
            mix(row.name);
        });
    });
    return fp;
}

std::string
paramsToJson(const CoreParams &p)
{
    std::string out = "{";
    forEachParamField(p, [&out](const ParamRow &row, uint64_t v) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                      out.size() > 1 ? ", " : "", row.name, v);
        out += buf;
    });
    out += "}";
    return out;
}

bool
paramsFromJson(const std::string &json, CoreParams &out)
{
    CoreParams tmp;
    bool ok = true;
    forEachParamField(tmp, [&](const ParamRow &row, uint64_t &v) {
        ok = ok && jsonFieldU64(json, row.name, v) && v <= row.cap;
    });
    if (!ok)
        return false;
    out = tmp;
    return true;
}

bool
paramsEqual(const CoreParams &a, const CoreParams &b)
{
    return paramsToJson(a) == paramsToJson(b);
}

} // namespace sweep
} // namespace vpir
