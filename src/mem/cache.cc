#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

Cache::Cache(const CacheParams &p)
    : params(p),
      numSets(p.ways >= 1 && p.lineBytes
                  ? p.sizeBytes / (p.lineBytes * p.ways)
                  : 0),
      lineShift(floorLog2(p.lineBytes)),
      tagShift(floorLog2(p.lineBytes) + floorLog2(numSets)),
      lines(static_cast<size_t>(numSets) * p.ways),
      lru(numSets, p.ways >= 1 ? p.ways : 1)
{
    VPIR_ASSERT(isPowerOf2(p.lineBytes), "line size not a power of two");
    VPIR_ASSERT(p.ways >= 1, "need at least one way");
    VPIR_ASSERT(isPowerOf2(numSets), "set count not a power of two");
}

bool
Cache::probe(Addr addr) const
{
    const Line *set = &lines[setIndex(addr) * params.ways];
    uint32_t tag = tagOf(addr);
    for (unsigned w = 0; w < params.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

unsigned
Cache::access(Addr addr)
{
    ++nAccesses;
    uint32_t si = setIndex(addr);
    uint32_t tag = tagOf(addr);
    Line *set = &lines[si * params.ways];

    for (unsigned w = 0; w < params.ways; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            lru.touch(si, w);
            return params.hitLatency;
        }
    }

    ++nMisses;
    unsigned victim = lru.victim(si);
    set[victim].valid = true;
    set[victim].tag = tag;
    lru.touch(si, victim);
    return params.hitLatency + params.missLatency;
}

void
Cache::reset()
{
    for (Line &l : lines)
        l.valid = false;
    nAccesses = 0;
    nMisses = 0;
}

void
Cache::serialize(CkptWriter &w) const
{
    w.u32(numSets);
    w.u32(params.ways);
    for (const Line &l : lines) {
        w.b(l.valid);
        w.u32(l.tag);
    }
    lru.serialize(w);
    w.u64(nAccesses);
    w.u64(nMisses);
}

bool
Cache::deserialize(CkptReader &r)
{
    if (r.u32() != numSets || r.u32() != params.ways) {
        r.fail();
        return false;
    }
    for (Line &l : lines) {
        l.valid = r.b();
        l.tag = r.u32();
    }
    if (!lru.deserialize(r))
        return false;
    nAccesses = r.u64();
    nMisses = r.u64();
    return r.ok();
}

} // namespace vpir
