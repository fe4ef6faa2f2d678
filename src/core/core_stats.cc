#include "core/core_stats.hh"

#include "common/fnv_json.hh"

namespace vpir
{

void
CoreStats::exportTo(StatSet &out) const
{
    forEachStatRow(*this, [&out](const char *, const char *name,
                                 const auto &v) {
        out.set(name, static_cast<double>(v));
    });
    out.set("ipc", ipc());
    out.set("branch_res_lat_avg",
            ratio(static_cast<double>(branchResLatSum),
                  static_cast<double>(branchResCount)));
    out.set("resource_contention",
            ratio(static_cast<double>(resourceDenied),
                  static_cast<double>(resourceRequests)));
}

uint64_t
statsSchemaFingerprint()
{
    static const uint64_t fp = fnv::schemaFingerprint([](auto &&mix) {
        CoreStats tmp;
        forEachStatRow(tmp, [&mix](const char *name, const char *,
                                   const auto &) { mix(name); });
    });
    return fp;
}

} // namespace vpir
