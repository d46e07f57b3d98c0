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
 * Internally the queue is a merge of a few sorted runs of 16-byte
 * (when, seq|slot) keys, plus a FIFO lane for events scheduled at the
 * current tick. Components schedule at a fixed delay per source, so
 * the pending set splits into a handful of runs that only ever grow at
 * the tail: the paper's high-load round trips keep ~1.2k events pending
 * in about a dozen runs (docs/performance.md). A schedule appends to
 * the first run whose tail it does not precede; a pop takes the
 * earliest run head from a small heap of heads. A component may also
 * reserve a seq and schedule at it later (reserveSeq,
 * scheduleReserved): the event then fires where a schedule made at
 * reserve time would have. The runs' keys share one pool of 256-byte
 * chunks, so memory follows the pending count.
 * The Events themselves sit in a slab of reusable slots, so the runs
 * move keys, never 64-byte callables. Events are hmcsim::Event (sim/event.hh): fixed-size,
 * inline-capture callables, so once the runs, lane and slab reach
 * their working depth the schedule/fire path performs no heap
 * allocation at all.
 */

#ifndef HMCSIM_SIM_EVENT_QUEUE_HH
#define HMCSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"
#include "sim/wiring.hh"

namespace hmcsim
{

class CheckerRegistry;

/**
 * A discrete-event queue with a monotonically advancing current time.
 *
 * Not thread safe; one queue per simulated system.
 */
class EventQueue // lint:snapshot-state
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    /** Take @p other's clock, counters and pending events; this
     *  queue's receivers and checkers stay (Ac510Module::fork). */
    EventQueue &operator=(const EventQueue &) = default;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events currently pending. */
    std::size_t
    pending() const
    {
        return numQueued + (nowLane.size() - nowHead);
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
     * Take the seq the next schedule would receive without scheduling
     * anything. A component that may or may not need an event at a
     * later tick reserves its place: scheduleReserved() at the same
     * tick then fires it exactly where a schedule made now would
     * have, and if it never schedules, nothing fires.
     */
    std::uint64_t reserveSeq() { return nextSeq++; }

    /**
     * Schedule @p ev at the key (@p when, @p seq), @p seq from
     * reserveSeq(). The key must not have passed (hasPassed), and
     * @p when must be later than the tick the seq was reserved at, so
     * the key precedes every now-lane entry of its tick.
     */
    void scheduleReserved(Tick when, std::uint64_t seq, Event ev);

    /**
     * True when the key (@p when, @p seq) fires before the event now
     * firing, so an event at it would already have run. After
     * runUntil(limit), every key at or before limit has passed.
     */
    bool
    hasPassed(Tick when, std::uint64_t seq) const
    {
        return when < _now || (when == _now && seq < firingSeq);
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
    CheckerRegistry *checkers() const { return checkerRegistry.get(); }

    /** The seq the next scheduled event will receive. */
    std::uint64_t seqCounter() const { return nextSeq; }

    /**
     * Register @p component, a receiver of this queue's receiver events
     * (sim/event.hh), and return its index. A component registers once,
     * from its constructor; a simulator built from the same config
     * registers its components in the same order, so its queue can
     * take a copy of another's pending events.
     */
    ReceiverId addReceiver(void *component);

  private:
    /** Bits of Key::order that hold the slab slot: up to 16M events
     *  pending at once, and 2^40 schedules over a queue's life. */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask =
        (std::uint64_t{1} << slotBits) - 1;

    /** Run key, 16 bytes so four share a cache line. Firing order is
     *  (when, seq); `order` holds seq above the slot that indexes
     *  `slab`, and seqs are unique, so (when, order) is that order. */
    struct Key
    {
        Tick when;
        std::uint64_t order;
    };

    /** (when, order) as one 128-bit compare: branch-free, which
     *  matters because which run head fires next is a coin flip. */
    static bool
    firesBefore(const Key &a, const Key &b)
    {
        return ((unsigned __int128){a.when} << 64 | a.order) <
               ((unsigned __int128){b.when} << 64 | b.order);
    }

    /** Keys per chunk of the key pool (256 B). */
    static constexpr std::uint32_t chunkKeys = 16;

    /** One sorted run: a FIFO of keys in a chain of pool chunks. Keys
     *  enter at the tail in (when, seq) order, so the front is the
     *  run's earliest. A run always holds at least one chunk. */
    struct Run
    {
        /** Pool index of the front key. */
        std::uint32_t head = 0;
        /** Pool index one past the back key. */
        std::uint32_t tail = 0;
        std::uint32_t size = 0;
    };

    /** A non-empty run's front key, inline so the heads heap compares
     *  without touching the run. */
    struct Head
    {
        Key key;
        std::uint32_t run;
    };

    /** The slab slot @p ev now occupies. */
    inline std::uint64_t store(Event &&ev);

    /** Append @p key to run @p run, opening a new run when @p run is
     *  runs.size(), and keep the tails and heads in step. Forced
     *  inline: with two callers GCC would call it from schedule(). */
    [[gnu::always_inline]] inline void insert(std::uint32_t run,
                                              const Key &key);

    /** Append @p key to @p run, taking a chunk when its last is full.
     *  Inline, like pop(): the schedule and fire paths. */
    inline void push(Run &run, const Key &key);

    /** Drop @p run's front key, returning emptied chunks to the pool. */
    inline void pop(Run &run);

    /** A free chunk's index, growing the pool when none is free. */
    std::uint32_t takeChunk();

    /** Index of the run a key at @p when goes to; runs.size() when
     *  every run's tail follows it, and a new run must open. */
    std::uint32_t firstRunFor(Tick when) const;

    /** Fill the hole at heads[@p hole] with @p head, moving entries
     *  down (siftHeadUp) or up (siftHeadDown) until it fits. */
    void siftHeadUp(std::size_t hole, const Head &head);
    void siftHeadDown(std::size_t hole, const Head &head);

    /** Remove and return the earliest key of the runs. Inline, so it
     *  folds into executeTop, its only caller. */
    inline Key popRuns();

    /** True when the next event is the now-lane's front: the runs
     *  hold nothing at the current tick, and the lane is not empty. */
    bool
    laneFirst() const
    {
        return nowHead < nowLane.size() &&
               (heads.empty() || heads.front().key.when > _now);
    }

    /** Pop the earliest event and run it at its tick. */
    void executeTop();

    /** Run attached checkers at a drain point. */
    void runCheckers();

    /** Sorted runs of the events scheduled for a later tick than the
     *  one they were scheduled at. */
    std::vector<Run> runs;
    /** Each run's last-appended tick, non-increasing with the run
     *  index: a key goes to the first run whose tail is <= its tick
     *  (patience sorting, so no online rule uses fewer runs). An
     *  emptied run keeps its tail, which is then behind now(), so it
     *  is reused before any new run opens. */
    std::vector<Tick> tails;
    /** Binary min-heap by firesBefore of the non-empty runs' fronts;
     *  heads[0] is the earliest pending key of all runs. */
    std::vector<Head> heads;
    /** Keys held by all runs. */
    std::size_t numQueued = 0;
    /** The runs' keys, in chunks of chunkKeys shared by all runs, so
     *  the pool holds about the pending keys, not each run's peak. */
    std::vector<Key> pool;
    /** Per chunk, the next chunk of the run it belongs to. */
    std::vector<std::uint32_t> nextChunk;
    /** Chunks free for reuse. */
    std::vector<std::uint32_t> freeChunks;
    /** Events scheduled for the tick they were scheduled at, in seq
     *  order from nowHead on. They fire after every run entry of that
     *  tick (those were scheduled earlier, so carry lower seqs) and
     *  need no run; a fifth of the schedules under load. */
    std::vector<Key> nowLane;
    std::size_t nowHead = 0;
    /** Pending callables, addressed by Key::slot. */
    std::vector<Event> slab;
    /** Slab slots free for reuse. */
    std::vector<std::uint32_t> freeSlots;

    Tick _now = 0;
    /** Seq of the event now firing (or last fired); all ones once
     *  runUntil has passed every key at _now. */
    std::uint64_t firingSeq = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    /** The components receiver events name, by ReceiverId. */
    Wiring<std::vector<void *>> receivers;
    Wiring<CheckerRegistry *> checkerRegistry;
    Wiring<std::uint64_t> checkEveryN{1};
    std::uint64_t eventsSinceCheck = 0;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_EVENT_QUEUE_HH
