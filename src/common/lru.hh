/**
 * @file
 * LRU replacement state for small set-associative structures (caches,
 * VPT, reuse buffer). Tracks recency with per-way timestamps, which is
 * exact LRU and cheap at the associativities used here (2- and 4-way).
 *
 * One LruTable holds every set of a structure in one flat array,
 * allocated once at construction: per set, its touch counter followed
 * by one stamp per way, so an update touches one small contiguous run
 * and no set is its own heap object.
 */

#ifndef VPIR_COMMON_LRU_HH
#define VPIR_COMMON_LRU_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ckpt_io.hh"
#include "common/logging.hh"

namespace vpir
{

/** LRU recency trackers for @p sets sets of @p ways ways each. */
class LruTable
{
  public:
    LruTable(size_t sets, unsigned ways)
        : stride(ways + 1), words(sets * (ways + 1), 0)
    {
        VPIR_ASSERT(ways >= 1, "LRU set needs at least one way");
    }

    /** Mark way @p way of set @p set most-recently-used. */
    void
    touch(size_t set, unsigned way)
    {
        VPIR_ASSERT(way + 1 < stride, "way out of range");
        uint64_t *s = &words[set * stride];
        s[1 + way] = ++s[0];
    }

    /** Way of set @p set holding the least-recently-used entry (the
     *  lowest way among equally old ones). */
    unsigned
    victim(size_t set) const
    {
        const uint64_t *stamps = &words[set * stride + 1];
        unsigned v = 0;
        for (unsigned w = 1; w + 1 < stride; ++w) {
            if (stamps[w] < stamps[v])
                v = w;
        }
        return v;
    }

    /** Checkpoint the recency state of every set, set by set (tick,
     *  then the ways' stamps — the array's own order); geometry is
     *  fixed by construction. */
    void
    serialize(CkptWriter &w) const
    {
        for (uint64_t v : words)
            w.u64(v);
    }

    /** Restore serialize()d state into an identically-shaped table. */
    bool
    deserialize(CkptReader &r)
    {
        for (uint64_t &v : words)
            v = r.u64();
        return r.ok();
    }

  private:
    unsigned stride; //!< ways + 1
    /** Per set: [tick, stamp of way 0, ..., stamp of way ways-1]. */
    std::vector<uint64_t> words;
};

} // namespace vpir

#endif // VPIR_COMMON_LRU_HH
