/**
 * @file
 * Timing wheel for completion events.
 *
 * The core used to find finishing instructions by scanning the whole
 * ROB every cycle for completeAt <= now. The wheel indexes events by
 * their due cycle instead: near-future events (within WHEEL_SPAN
 * cycles) go into a power-of-two bucket array indexed by (at & mask),
 * each bucket a list threaded through one preallocated node pool (so
 * scheduling reuses freed nodes instead of growing per-bucket arrays),
 * far-future ones wait in a min-heap and migrate into the near wheel
 * as their cycle approaches. popDue() touches only the current
 * cycle's bucket; nextEventAt() gives the idle-cycle skipper an exact
 * lower bound on the next due event.
 *
 * Events are fire-and-forget: a squash does not remove events, the
 * consumer validates each popped event against live ROB state (slot
 * + sequence number) and discards stale ones. A bucket can hold
 * events one full wheel revolution apart (at and at + WHEEL_SPAN map
 * to the same index); popDue() filters on the exact due cycle and
 * leaves later laps in place.
 */

#ifndef VPIR_COMMON_EVENT_WHEEL_HH
#define VPIR_COMMON_EVENT_WHEEL_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** One scheduled wakeup: ROB slot plus the sequence number that
 *  occupied it at schedule time (staleness check on pop). */
struct WheelEvent
{
    /** What the consumer should do when the event fires. */
    enum class Kind : uint8_t
    {
        Complete, //!< an in-flight execution finishes this cycle
        Refinal,  //!< re-run the finalize check (producer finalizes)
    };

    uint64_t at = 0;
    uint64_t seq = 0;
    int slot = -1;
    Kind kind = Kind::Complete;
};

class EventWheel
{
  public:
    /** Near-wheel span in cycles; deltas beyond it go to the far
     *  heap. Covers every realistic completion latency (cache miss +
     *  verification) so the heap stays cold in practice. */
    static constexpr uint64_t WHEEL_SPAN = 256;

    /**
     * @param reserve_events Pending events the node pool holds without
     *        growing (the core sizes it from its ROB). Beyond that the
     *        pool grows geometrically, like a vector.
     */
    explicit EventWheel(size_t reserve_events = 0)
    {
        near.fill(-1);
        nodes.reserve(reserve_events);
        far.reserve(reserve_events);
    }

    size_t size() const { return n; }
    bool empty() const { return n == 0; }

    /** Schedule @p ev; @p now is the current cycle. Due cycles in the
     *  past are a caller bug. */
    void
    schedule(const WheelEvent &ev, uint64_t now)
    {
        VPIR_ASSERT(ev.at >= now, "scheduling an event in the past");
        if (ev.at - now < WHEEL_SPAN) {
            pushNear(ev);
        } else {
            far.push_back(ev);
            std::push_heap(far.begin(), far.end(), farLater);
        }
        ++n;
    }

    /** Append every event due exactly at @p now to @p out and remove
     *  it from the wheel. Caller sorts/validates as needed. */
    void
    popDue(uint64_t now, std::vector<WheelEvent> &out)
    {
        migrate(now);
        int *link = &near[bucket(now)];
        while (*link >= 0) {
            int id = *link;
            Node &node = nodes[static_cast<size_t>(id)];
            if (node.ev.at == now) {
                out.push_back(node.ev);
                *link = node.next;
                node.next = freeHead;
                freeHead = id;
                --n;
            } else {
                // A later lap of the wheel; leave it for its cycle.
                link = &node.next;
            }
        }
    }

    /** Due cycle of the earliest pending event, or UINT64_MAX when
     *  empty. @p now must be at or before every pending event. Only
     *  called on idle cycles, so the bounded bucket scan is off the
     *  hot path. */
    uint64_t
    nextEventAt(uint64_t now) const
    {
        if (n == 0)
            return UINT64_MAX;
        uint64_t best = far.empty() ? UINT64_MAX : far.front().at;
        for (uint64_t d = 0; d < WHEEL_SPAN && now + d < best; ++d) {
            for (int id = near[bucket(now + d)]; id >= 0;
                 id = nodes[static_cast<size_t>(id)].next) {
                const WheelEvent &ev = nodes[static_cast<size_t>(id)].ev;
                VPIR_ASSERT(ev.at >= now, "stale event left in wheel");
                best = std::min(best, ev.at);
            }
            if (best == now + d)
                break; // nothing can beat an event due this scan slot
        }
        return best;
    }

    void
    clear()
    {
        near.fill(-1);
        nodes.clear();
        freeHead = -1;
        far.clear();
        n = 0;
    }

  private:
    /** Pool node: one pending near event, chained into its bucket's
     *  list (or the free list) by pool index. */
    struct Node
    {
        WheelEvent ev;
        int next = -1;
    };

    static size_t
    bucket(uint64_t at)
    {
        return static_cast<size_t>(at & (WHEEL_SPAN - 1));
    }

    static bool
    farLater(const WheelEvent &a, const WheelEvent &b)
    {
        return a.at > b.at; // min-heap on due cycle
    }

    void
    pushNear(const WheelEvent &ev)
    {
        int id = freeHead;
        if (id >= 0) {
            freeHead = nodes[static_cast<size_t>(id)].next;
        } else {
            id = static_cast<int>(nodes.size());
            nodes.emplace_back();
        }
        Node &node = nodes[static_cast<size_t>(id)];
        int &head = near[bucket(ev.at)];
        node.ev = ev;
        node.next = head;
        head = id;
    }

    /** Move far-heap events whose due cycle entered the near span. */
    void
    migrate(uint64_t now)
    {
        while (!far.empty() && far.front().at - now < WHEEL_SPAN) {
            std::pop_heap(far.begin(), far.end(), farLater);
            pushNear(far.back());
            far.pop_back();
        }
    }

    std::array<int, WHEEL_SPAN> near; //!< bucket list heads (-1 empty)
    std::vector<Node> nodes;          //!< pool; freed nodes are reused
    int freeHead = -1;                //!< free-list head in nodes
    std::vector<WheelEvent> far;      //!< min-heap by at
    size_t n = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_EVENT_WHEEL_HH
