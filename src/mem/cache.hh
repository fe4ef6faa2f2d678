/**
 * @file
 * Set-associative cache timing model.
 *
 * Matches the paper's Table 1 memories: 64KB, 2-way, 32-byte lines,
 * 6-cycle miss latency, for both L1I and L1D (D is dual ported and
 * non-blocking). Only hit/miss timing is modelled — data always comes
 * from the emulator's architectural memory.
 */

#ifndef VPIR_MEM_CACHE_HH
#define VPIR_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/ckpt_io.hh"
#include "common/lru.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Cache geometry and timing parameters. */
struct CacheParams
{
    uint32_t sizeBytes = 64 * 1024;
    unsigned ways = 2;
    uint32_t lineBytes = 32;
    unsigned hitLatency = 1;
    unsigned missLatency = 6;   //!< additional cycles on a miss
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params = CacheParams());

    /**
     * Access a line; allocates on miss.
     * @return total access latency in cycles.
     */
    unsigned access(Addr addr);

    /** Probe without allocating or touching LRU. */
    bool probe(Addr addr) const;

    /** Invalidate everything (between benchmark runs). */
    void reset();

    uint64_t accesses() const { return nAccesses; }
    uint64_t misses() const { return nMisses; }
    uint32_t lineBytes() const { return params.lineBytes; }

    /** True when two addresses share a cache line. */
    bool
    sameLine(Addr a, Addr b) const
    {
        return (a >> lineShift) == (b >> lineShift);
    }

    /** Checkpoint tags, LRU state, and counters (geometry is rebuilt
     *  from params by the constructor, so only contents travel). */
    void serialize(CkptWriter &w) const;
    /** Restore serialize()d state; false (and reader failure) on a
     *  geometry mismatch or torn payload. */
    bool deserialize(CkptReader &r);

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
    };

    /** Line number -> set and tag by shift and mask (sizes are powers
     *  of two, checked at construction). */
    uint32_t setIndex(Addr addr) const
    {
        return (addr >> lineShift) & (numSets - 1);
    }
    uint32_t tagOf(Addr addr) const { return addr >> tagShift; }

    CacheParams params;
    uint32_t numSets;
    unsigned lineShift; //!< log2(lineBytes)
    unsigned tagShift;  //!< log2(lineBytes * numSets)
    std::vector<Line> lines; //!< flat [set * ways + way]
    LruTable lru;
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace vpir

#endif // VPIR_MEM_CACHE_HH
