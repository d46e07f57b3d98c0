// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Free-list pool for in-flight packets.
 *
 * The event-core overhaul (docs/performance.md) forbids per-event
 * heap traffic on the steady-state path. Packets used to ride through
 * the controller's TX/RX pipeline *by value inside event captures*,
 * which both exceeded the Event inline budget (sim/event.hh) and made
 * every hop copy ~150 bytes. Components now acquire a pooled Packet
 * once per transaction, thread its slot index through their event
 * captures, and release it when the transaction retires.
 *
 * Slots are indices into one vector, not addresses, so the pool is a
 * plain value: a copy is a pool with the same packets in the same
 * slots, and the captures and queues that hold slot numbers stay valid
 * in it (Ac510Module::fork). The flip side: a Packet reference is only
 * good until the next acquire(), which may grow the vector.
 *
 * The pool never shrinks: after the warm-up transient every acquire is
 * a free-list pop, so a steady-state schedule/fire/complete cycle
 * performs zero allocations (enforced by tests/test_event_queue.cc).
 *
 * Threading: one pool per simulated system, same contract as the
 * EventQueue that drives it (see host/ac510.hh) -- never shared
 * across threads.
 */

#ifndef HMCSIM_PROTOCOL_PACKET_POOL_HH
#define HMCSIM_PROTOCOL_PACKET_POOL_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "protocol/packet.hh"

namespace hmcsim
{

static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet must stay trivially copyable: pooled slots are "
              "recycled by plain assignment");

/** A per-simulator free-list pool of Packet slots. */
class PacketPool // lint:snapshot-state
{
  public:
    /**
     * Take a fresh default-initialized packet slot. Amortized
     * allocation-free: the pool grows only when the free list is
     * empty, which stops happening once the in-flight high-water mark
     * is reached.
     */
    std::uint32_t
    acquire()
    {
        std::uint32_t slot;
        if (freeList.empty()) {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back();
        } else {
            slot = freeList.back();
            freeList.pop_back();
            slots[slot] = Packet{};
        }
        ++numAcquired;
        const std::size_t live = numAcquired - numReleased;
        if (live > _highWater)
            _highWater = live;
        return slot;
    }

    /** Make room for @p count packets: while no more are live at
     *  once, acquire() never moves the packets, so the pool holds one
     *  buffer, never an old and a new one while it copies. */
    void
    reserve(std::size_t count)
    {
        slots.reserve(count);
        freeList.reserve(count);
    }

    /** Return @p slot to the free list. */
    void
    release(std::uint32_t slot)
    {
        ++numReleased;
        freeList.push_back(slot);
    }

    /** The packet in @p slot (valid until the next acquire()). */
    Packet &operator[](std::uint32_t slot) { return slots[slot]; }
    const Packet &operator[](std::uint32_t slot) const
    {
        return slots[slot];
    }

    /** Slots currently checked out. */
    std::size_t live() const { return numAcquired - numReleased; }

    /** Most slots ever simultaneously checked out. */
    std::size_t highWater() const { return _highWater; }

    /** Total slots owned (live + free); stable once warm. */
    std::size_t capacity() const { return slots.size(); }

  private:
    std::vector<Packet> slots;
    std::vector<std::uint32_t> freeList;
    std::size_t numAcquired = 0;
    std::size_t numReleased = 0;
    std::size_t _highWater = 0;
};

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_PACKET_POOL_HH
