// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue executes (tick, sequence, callback) entries in
 * non-decreasing tick order. Events scheduled at the same tick execute
 * in scheduling order (FIFO), which keeps component pipelines
 * deterministic.
 *
 * Internally the queue is one binary min-heap of 16-byte (when,
 * seq|slot) keys, plus a FIFO lane for events scheduled at the current
 * tick, which need no sifting. The Events themselves sit in a slab of
 * reusable slots, so sifting moves keys, never 64-byte callables. The
 * heap is sized to the real traffic: even the paper's high-load round
 * trips keep only ~1.2k events pending (docs/performance.md). Events
 * are hmcsim::Event (sim/event.hh): fixed-size, inline-capture
 * callables, so once the heap, lane and slab reach their working
 * depth the schedule/fire path performs no heap allocation at all.
 */

#ifndef HMCSIM_SIM_EVENT_QUEUE_HH
#define HMCSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace hmcsim
{

class CheckerRegistry;

/**
 * A discrete-event queue with a monotonically advancing current time.
 *
 * Not thread safe; one queue per simulated system.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events currently pending. */
    std::size_t
    pending() const
    {
        return heap.size() + (nowLane.size() - nowHead);
    }

    /** Total number of events ever executed. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Schedule a callback at an absolute tick.
     * @param when Absolute time; must be >= now().
     * @param ev Callback to run (any callable fitting the Event
     *        inline-capture budget, see sim/event.hh).
     */
    void schedule(Tick when, Event ev);

    /** Schedule a callback @p delta ticks in the future. */
    void scheduleIn(Tick delta, Event ev)
    {
        schedule(_now + delta, std::move(ev));
    }

    /**
     * Execute the single next event (advancing time to it).
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or time would exceed @p limit.
     * Events exactly at @p limit are executed.
     * @return Tick at which execution stopped.
     */
    Tick runUntil(Tick limit);

    /** Run until no events remain. */
    void runToCompletion();

    /** Drop all pending events and reset time to zero. */
    void reset();

    /**
     * Attach an invariant-checker registry to this queue's drain
     * points. After every @p every_n executed events (and at the end
     * of runUntil / runToCompletion) the registry's checkers run at
     * the current tick, so a violated model invariant aborts at the
     * offending event rather than corrupting downstream statistics.
     * Pass nullptr to detach.
     */
    void setCheckers(CheckerRegistry *registry, std::uint64_t every_n = 1);

    /** The attached checker registry, or nullptr. */
    CheckerRegistry *checkers() const { return checkerRegistry; }

    // --- Snapshot/fork support (sim/snapshot.hh) -------------------
    //
    // A forked simulator rebuilds its queue by re-scheduling clones of
    // the source's pending events in ascending original-seq order:
    // relative (when, seq) order among the clones then matches the
    // source exactly, and restoreFinish() bumps the seq counter past
    // the source's so later schedules sort after every restored entry,
    // exactly as they would have in the source.

    /** Read-only view of one pending entry. */
    struct PendingView
    {
        Tick when;
        std::uint64_t seq;
        const Event *ev;
    };

    /** All pending entries, sorted ascending by seq. Views are valid
     *  until the next mutating call. */
    std::vector<PendingView> pendingSnapshot() const;

    /** The seq the next scheduled event will receive. */
    std::uint64_t seqCounter() const { return nextSeq; }

    /** Events executed since the checkers last ran. */
    std::uint64_t eventsSinceCheckCount() const { return eventsSinceCheck; }

    /**
     * Prepare an empty queue for restoring a snapshot taken at
     * @p now: sets the clock so re-scheduled entries pass the
     * past-tick check. Fatal if the queue is not empty.
     */
    void restoreBegin(Tick now);

    /** Adopt the source queue's counters after re-scheduling its
     *  pending entries (see restoreBegin). */
    void restoreFinish(std::uint64_t next_seq, std::uint64_t num_executed,
                       std::uint64_t events_since_check);

  private:
    /** Bits of Key::order that hold the slab slot: up to 16M events
     *  pending at once, and 2^40 schedules over a queue's life. */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask =
        (std::uint64_t{1} << slotBits) - 1;

    /** Heap key, 16 bytes so four share a cache line. Firing order is
     *  (when, seq); `order` holds seq above the slot that indexes
     *  `slab`, and seqs are unique, so (when, order) is that order. */
    struct Key
    {
        Tick when;
        std::uint64_t order;
    };

    /** (when, order) as one 128-bit compare: branch-free, which
     *  matters because sift decisions are data-dependent coin flips. */
    static bool
    firesBefore(const Key &a, const Key &b)
    {
        return ((unsigned __int128){a.when} << 64 | a.order) <
               ((unsigned __int128){b.when} << 64 | b.order);
    }

    /** Fill the hole at heap[@p hole] with @p key, moving parents down
     *  until the key fits. */
    void siftUp(std::size_t hole, const Key &key);

    /** Remove and return the heap's earliest key. */
    Key popHeap();

    /** True when the next event is the now-lane's front: the heap
     *  holds nothing at the current tick, and the lane is not empty. */
    bool
    laneFirst() const
    {
        return nowHead < nowLane.size() &&
               (heap.empty() || heap.front().when > _now);
    }

    /** Pop the earliest event and run it at its tick. */
    void executeTop();

    /** Run attached checkers at a drain point. */
    void runCheckers();

    /** Binary min-heap by firesBefore of the events scheduled for a
     *  later tick than the one they were scheduled at; heap[0] is the
     *  earliest. */
    std::vector<Key> heap;
    /** Events scheduled for the tick they were scheduled at, in seq
     *  order from nowHead on. They fire after every heap entry of
     *  that tick (those were scheduled earlier, so carry lower seqs)
     *  and need no sifting; a fifth of a loaded run's schedules. */
    std::vector<Key> nowLane;
    std::size_t nowHead = 0;
    /** Pending callables, addressed by Key::slot. */
    std::vector<Event> slab;
    /** Slab slots free for reuse. */
    std::vector<std::uint32_t> freeSlots;

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    CheckerRegistry *checkerRegistry = nullptr;
    std::uint64_t checkEveryN = 1;
    std::uint64_t eventsSinceCheck = 0;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_EVENT_QUEUE_HH
