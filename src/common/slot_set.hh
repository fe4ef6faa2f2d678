/**
 * @file
 * Fixed-capacity bitmask over small integer slot indices.
 *
 * The core's scheduling sets (ready set, unresolved-control set) are
 * subsets of ROB slots — at most a few hundred — and are consulted
 * every cycle. SlotSet packs membership into machine words: test,
 * insert, and erase are one masked word op, and iteration walks set
 * bits with ctz so an almost-empty set costs almost nothing.
 */

#ifndef VPIR_COMMON_SLOT_SET_HH
#define VPIR_COMMON_SLOT_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** Bounded set of slot indices [0, capacity). Capacity is fixed by
 *  reset(); membership ops are O(1), iteration O(words + popcount). */
class SlotSet
{
  public:
    SlotSet() = default;
    explicit SlotSet(size_t capacity) { reset(capacity); }

    /** (Re)size for @p capacity slots and clear. */
    void
    reset(size_t capacity)
    {
        cap = capacity;
        words.assign((capacity + 63) / 64, 0);
        n = 0;
    }

    size_t capacity() const { return cap; }
    size_t count() const { return n; }
    bool empty() const { return n == 0; }

    bool
    test(int slot) const
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        return (words[word(slot)] >> bit(slot)) & 1;
    }

    /** Idempotent: inserting a member is a no-op. */
    void
    insert(int slot)
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        uint64_t m = uint64_t{1} << bit(slot);
        uint64_t &w = words[word(slot)];
        n += !(w & m);
        w |= m;
    }

    /** Idempotent: erasing a non-member is a no-op. */
    void
    erase(int slot)
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        uint64_t m = uint64_t{1} << bit(slot);
        uint64_t &w = words[word(slot)];
        n -= !!(w & m);
        w &= ~m;
    }

    void
    clear()
    {
        for (uint64_t &w : words)
            w = 0;
        n = 0;
    }

    /** Visit members in ascending slot order; @p f returns false to
     *  stop early. */
    template <typename F>
    void
    forEach(F f) const
    {
        forEachRange(0, cap, f);
    }

    /**
     * Visit members in ring order — ascending from @p start, wrapping
     * at capacity — reading membership live: @p f may insert into or
     * erase from this set, and the walk then visits exactly the
     * members that lie ahead of its position when it gets there
     * (members erased before the walk reaches them are skipped, ones
     * inserted ahead of it are visited). With ROB slots this is
     * program order when @p start is the ROB head, so the scheduler
     * walks its candidate sets in place, with no copy. @p f returns
     * false to stop early.
     */
    template <typename F>
    void
    forEachLiveFrom(size_t start, F f) const
    {
        VPIR_ASSERT(start <= cap, "ring start beyond capacity");
        size_t pos = start;
        size_t end = cap;
        bool wrapped = false;
        for (;;) {
            int slot = nextMember(pos, end);
            if (slot < 0) {
                if (wrapped || start == 0)
                    return;
                wrapped = true;
                pos = 0;
                end = start;
                continue;
            }
            if (!f(slot))
                return;
            pos = static_cast<size_t>(slot) + 1;
        }
    }

  private:
    /** Visit members in [lo, hi); returns false on early stop. */
    template <typename F>
    bool
    forEachRange(size_t lo, size_t hi, F &f) const
    {
        if (lo >= hi)
            return true;
        size_t wlo = lo / 64;
        size_t whi = (hi - 1) / 64;
        for (size_t wi = wlo; wi <= whi; ++wi) {
            uint64_t w = words[wi];
            if (wi == wlo)
                w &= ~uint64_t{0} << (lo % 64);
            if (wi == whi && (hi % 64) != 0)
                w &= (uint64_t{1} << (hi % 64)) - 1;
            while (w) {
                int slot = static_cast<int>(wi * 64) +
                           __builtin_ctzll(w);
                if (!f(slot))
                    return false;
                w &= w - 1;
            }
        }
        return true;
    }

    /** First member in [lo, hi), or -1. */
    int
    nextMember(size_t lo, size_t hi) const
    {
        if (lo >= hi)
            return -1;
        size_t wi = lo / 64;
        uint64_t w = words[wi] & (~uint64_t{0} << (lo % 64));
        for (;;) {
            if (w) {
                size_t slot = wi * 64 + static_cast<size_t>(
                                            __builtin_ctzll(w));
                return slot < hi ? static_cast<int>(slot) : -1;
            }
            if (++wi * 64 >= hi)
                return -1;
            w = words[wi];
        }
    }

    bool
    inRange(int slot) const
    {
        return slot >= 0 && static_cast<size_t>(slot) < cap;
    }

    static size_t word(int slot) { return static_cast<size_t>(slot) / 64; }
    static unsigned bit(int slot) { return static_cast<unsigned>(slot) % 64; }

    std::vector<uint64_t> words;
    size_t cap = 0;
    size_t n = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_SLOT_SET_HH
