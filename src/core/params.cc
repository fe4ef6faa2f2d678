#include "core/params.hh"

#include <string>

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
    for (const auto &[name, c] : {std::pair{"icache", &icache},
                                  std::pair{"dcache", &dcache}}) {
        uint64_t set_bytes = static_cast<uint64_t>(c->ways) * c->lineBytes;
        if (set_bytes && c->sizeBytes % set_bytes)
            reject(std::string(name) + ".sizeBytes", c->sizeBytes,
                   "must be a multiple of ways x lineBytes = " +
                       std::to_string(set_bytes));
    }
}

} // namespace vpir
