/**
 * @file
 * Architectural state: registers and sparse paged memory, with an undo
 * journal for the speculative writer.
 *
 * Two writers use this state. The timing core's Emulator executes
 * instructions in dispatch order, including down mispredicted paths
 * (needed to model IR's recovery of squashed work and VP's spurious
 * branch redirects). Each of its register and memory writes is
 * journaled; a squash rolls the journal back to the offending
 * branch's position, restoring the exact architectural state the
 * correct path must see. The non-speculative FuncEngine (emu/engine.hh)
 * writes registers and pages directly: it never needs to undo a
 * write, so it keeps no journal and leaves the journal marks where
 * they are (DESIGN.md §15).
 *
 * Memory pages are held behind shared_ptr and cloned copy-on-write:
 * copying an EmuState is O(pages-resident) pointer copies, and the
 * first write to a shared page clones just that page. This is what
 * makes post-warmup snapshots (sim/warm_cache.hh) cheap enough to
 * hand every sweep cell — and every lockstep checker — a private
 * state without re-executing the warmup. shared_ptr's atomic
 * refcounts make concurrent clones of one immutable snapshot safe:
 * writers clone before touching a page whose count exceeds one, and
 * a count of one means this state is the sole owner.
 *
 * Hot-path layout (DESIGN.md §14–15): the undo journal is a vector
 * with a consumed-prefix head that is compacted in bulk. Two
 * one-entry page caches, one for reads and one for writes, remember
 * the map slot of the last page each touched, so runs of accesses to
 * one page skip the hash lookup even when loads and stores alternate
 * between two pages. The caches are per-object: copying, moving or
 * deserializing a state resets them. They name this state's own map
 * slots (never a page), so a copy-on-write clone of the page behind
 * one cannot leave it stale, and the write path re-checks sole
 * ownership on every write.
 */

#ifndef VPIR_EMU_STATE_HH
#define VPIR_EMU_STATE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ckpt_io.hh"
#include "common/logging.hh"
#include "isa/instr.hh"
#include "isa/regs.hh"

namespace vpir
{

/** Position in the undo journal (monotonically increasing). */
using JournalMark = uint64_t;

/** Registers + sparse paged memory + undo journal. Invariant: the r0
 *  slot holds zero (writes to r0 are dropped, deserialize() rejects a
 *  bundle that says otherwise), so FuncEngine may read it for an
 *  absent operand. */
class EmuState
{
  public:
    EmuState();

    // --- registers ---------------------------------------------------
    /** Read a register (r0 reads as zero). */
    uint64_t
    readReg(RegId r) const
    {
        VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
        return r == REG_ZERO ? 0 : regs[r];
    }

    /** Journaled register write (writes to r0 are dropped). */
    void
    writeReg(RegId r, uint64_t value)
    {
        VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
        if (r == REG_ZERO)
            return;
        journal.push_back(UndoRec{true, r, 0, 0, regs[r]});
        regs[r] = value;
    }

    /** Non-journaled write, for initialisation only. */
    void initReg(RegId r, uint64_t value);

    // --- memory --------------------------------------------------------
    /** Read size bytes little-endian (size 1, 2, 4 or 8). */
    uint64_t readMem(Addr addr, unsigned size) const
    {
        return readMemRaw(addr, size);
    }

    /** Journaled memory write. */
    void writeMem(Addr addr, unsigned size, uint64_t value);

    /** Non-journaled write, for loading the initial image. */
    void initMem(Addr addr, unsigned size, uint64_t value);

    /** Bulk non-journaled initialisation. */
    void initBytes(Addr addr, const uint8_t *data, size_t len);

    // --- journal -------------------------------------------------------
    /** Current journal position; instructions record this before
     *  executing so squashes can restore the state exactly. */
    JournalMark
    mark() const
    {
        return journalBase + (journal.size() - journalHead);
    }

    /** Undo all writes made at or after @p m. */
    void rollback(JournalMark m);

    /** Discard journal entries older than @p m (commit). */
    void retire(JournalMark m);

    /** Number of live journal records (test/diagnostic hook). */
    size_t journalDepth() const { return journal.size() - journalHead; }

    // --- copy-on-write observability ---------------------------------
    /** Pages resident in this state's sparse map. */
    size_t residentPages() const { return pages.size(); }

    /** Pages currently shared with at least one other state. */
    size_t sharedPages() const;

    /** Write faults that cloned a shared page since construction
     *  (copies inherit the source's count; compare deltas). */
    uint64_t cowFaults() const { return cowFaults_; }

    // --- checkpointing -------------------------------------------------
    /**
     * Checkpoint registers and resident pages. Only callable at a
     * quiesced commit boundary: the undo journal must be empty (all
     * speculation retired or rolled back), so only architectural
     * state travels. Pages are emitted in sorted page-number order so
     * the bundle is a deterministic byte sequence.
     */
    void serialize(CkptWriter &w) const;

    /** Restore serialize()d state; existing pages are discarded. */
    bool deserialize(CkptReader &r);

  private:
    /** The non-speculative writer: direct register and page access. */
    friend class FuncEngine;

    struct UndoRec
    {
        bool isReg;
        RegId reg;
        uint8_t size;   //!< bytes, memory records only
        Addr addr;
        uint64_t oldValue;
    };

    static constexpr unsigned pageBits = 12;
    static constexpr uint32_t pageSize = 1u << pageBits;
    using Page = std::array<uint8_t, pageSize>;
    using PageSlot = std::shared_ptr<Page>;

    /** Retired records at the journal's head are compacted away (one
     *  bulk move) once at least this many have accumulated and they
     *  outnumber the live ones. */
    static constexpr size_t JOURNAL_COMPACT = 1024;

    /** A page number no 32-bit address maps to: the empty cache. */
    static constexpr uint32_t NO_PAGE = UINT32_MAX;

    /** The last page-map slot looked up by one access kind. Copies
     *  and moves of the owning state start empty (the slot belongs
     *  to the source's map), and a move also empties the source. */
    struct PageCache
    {
        uint32_t pn = NO_PAGE;
        PageSlot *slot = nullptr;

        PageCache() = default;
        PageCache(const PageCache &) {}
        PageCache(PageCache &&o) noexcept { o.reset(); }
        PageCache &
        operator=(const PageCache &)
        {
            reset();
            return *this;
        }
        PageCache &
        operator=(PageCache &&o) noexcept
        {
            reset();
            o.reset();
            return *this;
        }
        void
        reset()
        {
            pn = NO_PAGE;
            slot = nullptr;
        }
    };

    /** Page @p addr lies in, for writing: created if absent, cloned
     *  first if shared. */
    Page &
    pageFor(Addr addr)
    {
        uint32_t pn = addr >> pageBits;
        // use_count() == 1: present and owned by this state alone.
        if (writeCache.pn == pn && writeCache.slot->use_count() == 1)
            return **writeCache.slot;
        return pageForSlow(pn);
    }

    /** Page @p addr lies in, or null when it was never written. */
    const Page *
    pageForRead(Addr addr) const
    {
        uint32_t pn = addr >> pageBits;
        if (readCache.pn == pn)
            return readCache.slot->get();
        return pageForReadSlow(pn);
    }

    Page &pageForSlow(uint32_t pn);
    const Page *pageForReadSlow(uint32_t pn) const;

    /** Little-endian load of N bytes (a constant, so the byte loop
     *  folds into one load). */
    template <unsigned N>
    static uint64_t
    loadLE(const uint8_t *p)
    {
        uint64_t v = 0;
        for (unsigned b = 0; b < N; ++b)
            v |= static_cast<uint64_t>(p[b]) << (8 * b);
        return v;
    }

    template <unsigned N>
    static void
    storeLE(uint8_t *p, uint64_t v)
    {
        for (unsigned b = 0; b < N; ++b)
            p[b] = static_cast<uint8_t>(v >> (8 * b));
    }

    /** Unjournaled read; single-page accesses (the overwhelming case)
     *  cost one cache check. */
    uint64_t
    readMemRaw(Addr addr, unsigned size) const
    {
        uint32_t off = addr & (pageSize - 1);
        if (off + size > pageSize)
            return readMemSplit(addr, size);
        const Page *p = pageForRead(addr);
        if (!p)
            return 0;
        const uint8_t *b = p->data() + off;
        switch (size) {
          case 1: return loadLE<1>(b);
          case 2: return loadLE<2>(b);
          case 4: return loadLE<4>(b);
          case 8: return loadLE<8>(b);
          default: return readMemSplit(addr, size);
        }
    }

    /** Unjournaled write. */
    void
    writeMemRaw(Addr addr, unsigned size, uint64_t value)
    {
        uint32_t off = addr & (pageSize - 1);
        if (off + size > pageSize) {
            writeMemSplit(addr, size, value);
            return;
        }
        uint8_t *b = pageFor(addr).data() + off;
        switch (size) {
          case 1: storeLE<1>(b, value); break;
          case 2: storeLE<2>(b, value); break;
          case 4: storeLE<4>(b, value); break;
          case 8: storeLE<8>(b, value); break;
          default: writeMemSplit(addr, size, value); break;
        }
    }

    /** Byte-at-a-time paths: accesses straddling two pages, and sizes
     *  other than 1, 2, 4 and 8. */
    uint64_t readMemSplit(Addr addr, unsigned size) const;
    void writeMemSplit(Addr addr, unsigned size, uint64_t value);

    std::array<uint64_t, NUM_ARCH_REGS> regs;
    /** shared_ptr, not unique_ptr: the default copy operations then
     *  implement the COW clone (pages shared until written). */
    std::unordered_map<uint32_t, PageSlot> pages;
    /** Undo records; [journalHead, size) are live, the prefix before
     *  journalHead is retired and awaits compaction. */
    std::vector<UndoRec> journal;
    size_t journalHead = 0;
    /** Mark of journal[journalHead] (the oldest live record). */
    JournalMark journalBase = 0;
    uint64_t cowFaults_ = 0;
    /** Read-side lookups go through a const path, hence mutable. */
    mutable PageCache readCache;
    PageCache writeCache;
};

} // namespace vpir

#endif // VPIR_EMU_STATE_HH
