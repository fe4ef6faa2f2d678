/**
 * @file
 * Saturating counter, the workhorse of confidence estimation and
 * two-bit branch direction prediction.
 */

#ifndef VPIR_COMMON_SAT_COUNTER_HH
#define VPIR_COMMON_SAT_COUNTER_HH

#include <cstdint>
#include <type_traits>

#include "common/logging.hh"

namespace vpir
{

/**
 * A BITS-bit saturating up/down counter, its width fixed at compile
 * time. It is stored in one byte up to 8 bits (so tables with many
 * counters, gshare and the VPT confidence, stay dense) and in two
 * bytes up to 15.
 */
template <unsigned BITS>
class SatCounter
{
    static_assert(BITS >= 1 && BITS <= 15, "bad counter width");

  public:
    /** @param initial Initial count. */
    explicit SatCounter(unsigned initial = 0)
        : count(static_cast<Storage>(initial))
    {
        VPIR_ASSERT(initial <= MAX, "initial exceeds saturation");
    }

    /** Increment, saturating at max. */
    void
    increment()
    {
        if (count < MAX)
            ++count;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (count > 0)
            --count;
    }

    /** Reset to a given value. */
    void
    reset(unsigned value = 0)
    {
        VPIR_ASSERT(value <= MAX, "reset exceeds saturation");
        count = static_cast<Storage>(value);
    }

    unsigned value() const { return count; }
    static constexpr unsigned max() { return MAX; }

    /** True when the count is in the upper half (e.g. taken for 2-bit). */
    bool isSet() const { return count > MAX / 2; }

    /** True when the count is at or above the given threshold. */
    bool atLeast(unsigned threshold) const { return count >= threshold; }

  private:
    using Storage = std::conditional_t<(BITS <= 8), uint8_t, uint16_t>;
    static constexpr unsigned MAX = (1u << BITS) - 1;
    Storage count;
};

} // namespace vpir

#endif // VPIR_COMMON_SAT_COUNTER_HH
