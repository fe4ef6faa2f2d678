#include "emu/state.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

EmuState::EmuState()
{
    regs.fill(0);
}

void
EmuState::initReg(RegId r, uint64_t value)
{
    VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
    if (r == REG_ZERO)
        return;
    regs[r] = value;
}

EmuState::Page &
EmuState::pageForSlow(uint32_t pn)
{
    if (writeCache.pn != pn) {
        writeCache.slot = &pages[pn];
        writeCache.pn = pn;
    }
    PageSlot &p = *writeCache.slot;
    if (!p) {
        p = std::make_shared<Page>();
        p->fill(0);
    } else if (p.use_count() > 1) {
        // Write fault on a shared page: clone before mutating so every
        // other state sharing it keeps its snapshot intact. A stale
        // use_count read from a concurrent clone's release can only
        // cause a harmless extra copy, never a missed one: the count
        // cannot grow without this owner copying the state itself.
        // The read cache names the same map slot, so it follows.
        p = std::make_shared<Page>(*p);
        ++cowFaults_;
    }
    return *p;
}

const EmuState::Page *
EmuState::pageForReadSlow(uint32_t pn) const
{
    if (writeCache.pn == pn) {
        readCache.slot = writeCache.slot;
        readCache.pn = pn;
        return readCache.slot->get();
    }
    auto it = pages.find(pn);
    if (it == pages.end())
        return nullptr; // absent pages are not cached: a write creates
                        // them through pageFor()
    // The map itself is not const (only this accessor is); cached
    // slots are written through only by pageFor().
    readCache.slot = const_cast<PageSlot *>(&it->second);
    readCache.pn = pn;
    return it->second.get();
}

size_t
EmuState::sharedPages() const
{
    size_t n = 0;
    for (const auto &[pn, p] : pages)
        if (p.use_count() > 1)
            ++n;
    return n;
}

uint64_t
EmuState::readMemSplit(Addr addr, unsigned size) const
{
    uint64_t v = 0;
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        const Page *p = pageForRead(a);
        uint8_t byte = p ? (*p)[a & (pageSize - 1)] : 0;
        v |= static_cast<uint64_t>(byte) << (8 * b);
    }
    return v;
}

void
EmuState::writeMemSplit(Addr addr, unsigned size, uint64_t value)
{
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        pageFor(a)[a & (pageSize - 1)] =
            static_cast<uint8_t>(value >> (8 * b));
    }
}

void
EmuState::writeMem(Addr addr, unsigned size, uint64_t value)
{
    VPIR_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad memory access size");
    journal.push_back(UndoRec{false, 0, static_cast<uint8_t>(size), addr,
                              readMemRaw(addr, size)});
    writeMemRaw(addr, size, value);
}

void
EmuState::initMem(Addr addr, unsigned size, uint64_t value)
{
    writeMemRaw(addr, size, value);
}

void
EmuState::initBytes(Addr addr, const uint8_t *data, size_t len)
{
    // Page-at-a-time: image loading is on the snapshot-build path.
    size_t i = 0;
    while (i < len) {
        Addr a = addr + static_cast<Addr>(i);
        uint32_t off = a & (pageSize - 1);
        size_t chunk = std::min<size_t>(len - i, pageSize - off);
        std::memcpy(pageFor(a).data() + off, data + i, chunk);
        i += chunk;
    }
}

void
EmuState::rollback(JournalMark m)
{
    VPIR_ASSERT(m >= journalBase, "rollback past retired state");
    while (mark() > m) {
        const UndoRec &u = journal.back();
        if (u.isReg)
            regs[u.reg] = u.oldValue;
        else
            writeMemRaw(u.addr, u.size, u.oldValue);
        journal.pop_back();
    }
}

void
EmuState::retire(JournalMark m)
{
    VPIR_ASSERT(m <= mark(), "retire beyond journal head");
    if (m <= journalBase)
        return;
    journalHead += static_cast<size_t>(m - journalBase);
    journalBase = m;
    if (journalHead == journal.size()) {
        // Nothing live: drop the retired prefix for free (the vector
        // keeps its capacity).
        journal.clear();
        journalHead = 0;
    } else if (journalHead >= JOURNAL_COMPACT &&
               2 * journalHead >= journal.size()) {
        journal.erase(journal.begin(),
                      journal.begin() +
                          static_cast<std::ptrdiff_t>(journalHead));
        journalHead = 0;
    }
}

void
EmuState::serialize(CkptWriter &w) const
{
    VPIR_ASSERT(journalDepth() == 0,
                "checkpoint with live speculation in the journal");
    for (uint64_t r : regs)
        w.u64(r);
    w.u64(journalBase);
    // Sorted page order: the bundle must be a deterministic function
    // of the architectural state, not of hash-map iteration order.
    std::vector<uint32_t> nums;
    nums.reserve(pages.size());
    for (const auto &kv : pages)
        nums.push_back(kv.first);
    std::sort(nums.begin(), nums.end());
    w.u64(nums.size());
    for (uint32_t n : nums) {
        w.u32(n);
        w.bytes(pages.at(n)->data(), pageSize);
    }
}

bool
EmuState::deserialize(CkptReader &r)
{
    for (uint64_t &reg : regs)
        reg = r.u64();
    if (regs[REG_ZERO] != 0) {
        r.fail(); // r0 is hardwired to zero: torn data
        return false;
    }
    journalBase = r.u64();
    journal.clear();
    journalHead = 0;
    readCache.reset();
    writeCache.reset();
    pages.clear();
    uint64_t count = r.u64();
    if (count > r.remaining() / pageSize) {
        r.fail();
        return false;
    }
    uint32_t prev = 0;
    for (uint64_t i = 0; i < count; ++i) {
        uint32_t n = r.u32();
        if (i > 0 && n <= prev) {
            r.fail(); // violates sorted-unique invariant: torn data
            return false;
        }
        prev = n;
        auto page = std::make_shared<Page>();
        if (!r.bytes(page->data(), pageSize))
            return false;
        pages.emplace(n, std::move(page));
    }
    return r.ok();
}

} // namespace vpir
