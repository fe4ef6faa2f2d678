#include "core/params.hh"

#include <string>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

void
CoreParams::validate() const
{
    auto reject = [](const std::string &field, uint64_t v,
                     const std::string &rule) {
        panic("invalid CoreParams: " + field + " = " + std::to_string(v) +
              " " + rule);
    };
    forEachParamField(*this, [&](const ParamRow &row, uint64_t v) {
        if (v < row.lo)
            reject(row.name, v, "must be at least " + std::to_string(row.lo));
        if (v > row.hi)
            reject(row.name, v, "must be at most " + std::to_string(row.hi));
    });
    // Table geometry: the index math needs power-of-two sizes, and
    // every set-associative table a power-of-two number of sets.
    auto power_of_2 = [&](const std::string &field, uint64_t v) {
        if (!isPowerOf2(v))
            reject(field, v, "must be a power of two");
    };
    power_of_2("bpred.tableEntries", bpred.tableEntries);
    power_of_2("bpred.btbEntries", bpred.btbEntries);
    if (bpred.historyBits > floorLog2(bpred.tableEntries))
        reject("bpred.historyBits", bpred.historyBits,
               "must be at most log2(bpred.tableEntries) = " +
                   std::to_string(floorLog2(bpred.tableEntries)));
    // Sets of @p per_set units in @p size; @p field names the size.
    auto sets = [&](const std::string &field, uint64_t size,
                    uint64_t per_set, const std::string &unit) {
        if (size % per_set)
            reject(field, size,
                   "must be a multiple of " + unit + " = " +
                       std::to_string(per_set));
        if (!isPowerOf2(size / per_set))
            reject(field, size,
                   "must give a power-of-two number of sets, not " +
                       std::to_string(size / per_set));
    };
    for (const auto &[name, c] : {std::pair{"icache", &icache},
                                  std::pair{"dcache", &dcache}}) {
        power_of_2(std::string(name) + ".lineBytes", c->lineBytes);
        sets(std::string(name) + ".sizeBytes", c->sizeBytes,
             static_cast<uint64_t>(c->ways) * c->lineBytes,
             "ways x lineBytes");
    }
    sets("vpt.entries", vpt.entries, vpt.ways, "ways");
    sets("rb.entries", rb.entries, rb.ways, "ways");
}

} // namespace vpir
