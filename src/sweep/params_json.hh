/**
 * @file
 * Lossless JSON (de)serialization of CoreParams, used by the fuzz
 * repro bundles so a failing cell's exact machine configuration rides
 * inside the bundle. Serializer, parser and schema fingerprint are
 * folds over the CoreParams field table (core/params.hh).
 */

#ifndef VPIR_SWEEP_PARAMS_JSON_HH
#define VPIR_SWEEP_PARAMS_JSON_HH

#include <cstdint>
#include <string>

#include "core/params.hh"

namespace vpir
{
namespace sweep
{

/** FNV-1a fingerprint of the param schema (field names in order). */
uint64_t paramsSchemaFingerprint();

/** Render the configuration as a flat JSON object. Doubles are
 *  emitted as their raw 64-bit patterns, so the round trip is
 *  bit-exact. */
std::string paramsToJson(const CoreParams &p);

/** Parse a paramsToJson() object. @return false (leaving @p out
 *  untouched) on malformed input, any missing field, or a value its
 *  field cannot hold: above ParamRow::cap, i.e. an unsigned above
 *  UINT32_MAX, an enum past its last enumerator or a bool above 1. */
bool paramsFromJson(const std::string &json, CoreParams &out);

/** Exact equality over every field. */
bool paramsEqual(const CoreParams &a, const CoreParams &b);

} // namespace sweep
} // namespace vpir

#endif // VPIR_SWEEP_PARAMS_JSON_HH
