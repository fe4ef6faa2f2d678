#include "isa/decode.hh"

#include "common/logging.hh"

namespace vpir
{

unsigned
fuPoolSize(FuType t)
{
    switch (t) {
      case FuType::None:      return 0;
      case FuType::IntAlu:    return 8;
      case FuType::LoadStore: return 2;
      case FuType::FpAdder:   return 4;
      case FuType::IntMulDiv: return 1;
      case FuType::FpMulDiv:  return 1;
      default: panic("bad FU type");
    }
}

} // namespace vpir
