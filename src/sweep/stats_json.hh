/**
 * @file
 * Lossless JSON (de)serialization of CoreStats for the sweep engine's
 * on-disk result cache, plus the counter visitor the sweep tests and
 * perfbench use to compare and sum stat sets. Both are folds over the
 * CoreStats field table (core/core_stats.hh).
 */

#ifndef VPIR_SWEEP_STATS_JSON_HH
#define VPIR_SWEEP_STATS_JSON_HH

#include <string>

#include "core/core_stats.hh"

namespace vpir
{
namespace sweep
{

/**
 * Visit every uint64_t counter of a CoreStats as fn(const char *name,
 * uint64_t &value), in table order; haltedCleanly, the one bool
 * field, is skipped.
 */
template <typename Stats, typename Fn>
void
forEachStatField(Stats &st, Fn &&fn)
{
    forEachStatRow(st, [&fn](const char *name, const char *, auto &v) {
        if constexpr (!isStatFlag<decltype(v)>)
            fn(name, v);
    });
}

/** Render every field as a flat JSON object (uint64 as decimal,
 *  haltedCleanly as 0/1). */
std::string statsToJson(const CoreStats &st);

/**
 * Parse a JSON object produced by statsToJson() back into @p out.
 * @return false (leaving @p out untouched) on any malformed input,
 * missing field or value that does not fit its field — callers fall
 * back to recomputation.
 */
bool statsFromJson(const std::string &json, CoreStats &out);

/** Exact equality over every counter (including haltedCleanly). */
bool statsEqual(const CoreStats &a, const CoreStats &b);

} // namespace sweep
} // namespace vpir

#endif // VPIR_SWEEP_STATS_JSON_HH
