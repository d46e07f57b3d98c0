// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "sim/event_queue.hh"

#include <utility>

#include "sim/check.hh"

namespace hmcsim
{

void
EventQueue::schedule(Tick when, Event ev)
{
    // Stays a release-build check: a past-tick schedule means the
    // queue is already corrupt, and its cost is part of the audited
    // event-core budget (docs/performance.md).
    // lint:allow(hot-check)
    HMCSIM_CHECK(when >= _now,
                 "scheduling event in the past (when=%llu now=%llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(_now));
    // lint:allow(hot-check)
    HMCSIM_CHECK(nextSeq >> (64 - slotBits) == 0,
                 "event sequence space exhausted (%llu schedules)",
                 static_cast<unsigned long long>(nextSeq));
    std::uint64_t slot;
    if (freeSlots.empty()) {
        slot = slab.size();
        // Growth path only: a new slot must fit its field.
        // lint:allow(hot-check)
        HMCSIM_CHECK(slot <= slotMask, "more than %llu events pending",
                     static_cast<unsigned long long>(slotMask));
        slab.push_back(std::move(ev));
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
        slab[slot] = std::move(ev);
    }
    const Key key{when, nextSeq++ << slotBits | slot};
    if (when == _now) {
        nowLane.push_back(key);
        return;
    }
    const std::uint32_t run = firstRunFor(when);
    if (run == runs.size()) {
        const std::uint32_t chunk = takeChunk() * chunkKeys;
        runs.push_back({chunk, chunk, 0});
        tails.push_back(when);
    } else {
        tails[run] = when;
    }
    if (runs[run].size == 0) {
        heads.push_back({});
        siftHeadUp(heads.size() - 1, {key, run});
    }
    push(runs[run], key);
    ++numQueued;
}

inline void
EventQueue::push(Run &run, const Key &key)
{
    // A non-empty run's tail sits on a chunk boundary only when its
    // last chunk is full; an empty one's sits at its chunk's start.
    if (run.tail % chunkKeys == 0 && run.size != 0) {
        const std::uint32_t chunk = takeChunk();
        nextChunk[run.tail / chunkKeys - 1] = chunk;
        run.tail = chunk * chunkKeys;
    }
    pool[run.tail++] = key;
    ++run.size;
}

inline void
EventQueue::pop(Run &run)
{
    ++run.head;
    if (--run.size == 0) {
        // Keep the last chunk: runs empty and refill all the time.
        run.head = run.tail = (run.head - 1) / chunkKeys * chunkKeys;
    } else if (run.head % chunkKeys == 0) {
        const std::uint32_t done = run.head / chunkKeys - 1;
        freeChunks.push_back(done);
        run.head = nextChunk[done] * chunkKeys;
    }
}

std::uint32_t
EventQueue::takeChunk()
{
    if (freeChunks.empty()) {
        nextChunk.push_back(0);
        pool.resize(pool.size() + chunkKeys);
        return static_cast<std::uint32_t>(nextChunk.size() - 1);
    }
    const std::uint32_t chunk = freeChunks.back();
    freeChunks.pop_back();
    return chunk;
}

std::uint32_t
EventQueue::firstRunFor(Tick when) const
{
    // The first run whose tail does not follow @p when: tails are
    // non-increasing, so that is the latest tail the key can extend,
    // and the tails stay non-increasing after it does. Branch-free
    // binary search: which run a key lands in is a coin flip.
    if (tails.empty())
        return 0;
    const Tick *base = tails.data();
    for (std::size_t n = tails.size(); n > 1;) {
        const std::size_t half = n / 2;
        base += (base[half - 1] > when) * half;
        n -= half;
    }
    return static_cast<std::uint32_t>(base - tails.data()) +
           (*base > when);
}

void
EventQueue::siftHeadUp(std::size_t hole, const Head &head)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!firesBefore(head.key, heads[parent].key))
            break;
        heads[hole] = heads[parent];
        hole = parent;
    }
    heads[hole] = head;
}

void
EventQueue::siftHeadDown(std::size_t hole, const Head &head)
{
    const std::size_t n = heads.size();
    for (std::size_t c = 2 * hole + 1; c < n; c = 2 * hole + 1) {
        c += c + 1 < n && firesBefore(heads[c + 1].key, heads[c].key);
        if (!firesBefore(heads[c].key, head.key))
            break;
        heads[hole] = heads[c];
        hole = c;
    }
    heads[hole] = head;
}

inline EventQueue::Key
EventQueue::popRuns()
{
    const Head top = heads.front();
    Run &run = runs[top.run];
    pop(run);
    --numQueued;
    if (run.size != 0) {
        // The run's next key is usually still the earliest, so this
        // mostly stops at the first level.
        siftHeadDown(0, {pool[run.head], top.run});
    } else {
        const Head last = heads.back();
        heads.pop_back();
        if (!heads.empty())
            siftHeadDown(0, last);
    }
    return top.key;
}

void
EventQueue::executeTop()
{
    Key top{};
    if (laneFirst()) {
        top = nowLane[nowHead++];
        if (nowHead == nowLane.size()) {
            nowLane.clear();
            nowHead = 0;
        }
    } else {
        top = popRuns();
    }

    // Free the slot before invoking: the callback may schedule into it.
    const auto slot = static_cast<std::uint32_t>(top.order & slotMask);
    Event ev = std::move(slab[slot]);
    freeSlots.push_back(slot);

    HMCSIM_DCHECK(top.when >= _now,
                  "event time went backwards (when=%llu now=%llu)",
                  static_cast<unsigned long long>(top.when),
                  static_cast<unsigned long long>(_now));
    _now = top.when;
    check_detail::setCurrentTick(_now);
    ++numExecuted;
    ev(receivers.get().data());
    if (checkerRegistry.get() && ++eventsSinceCheck >= checkEveryN.get()) {
        eventsSinceCheck = 0;
        checkerRegistry->runAll(_now);
    }
}

bool
EventQueue::step()
{
    if (pending() == 0)
        return false;
    executeTop();
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (laneFirst() ? _now <= limit
                       : !heads.empty() && heads.front().key.when <= limit)
        executeTop();
    if (_now < limit)
        _now = limit;
    runCheckers();
    return _now;
}

void
EventQueue::runToCompletion()
{
    while (step()) {
    }
    runCheckers();
}

void
EventQueue::setCheckers(CheckerRegistry *registry, std::uint64_t every_n)
{
    // Config-time API validation, not per-event work.
    // lint:allow(hot-check)
    HMCSIM_CHECK(every_n > 0, "checker interval must be non-zero");
    checkerRegistry.get() = registry;
    checkEveryN.get() = every_n;
    eventsSinceCheck = 0;
}

void
EventQueue::runCheckers()
{
    if (checkerRegistry.get()) {
        eventsSinceCheck = 0;
        checkerRegistry->runAll(_now);
    }
}

ReceiverId
EventQueue::addReceiver(void *component)
{
    receivers.get().push_back(component);
    return static_cast<ReceiverId>(receivers.get().size() - 1);
}

void
EventQueue::reset()
{
    runs.clear();
    tails.clear();
    heads.clear();
    numQueued = 0;
    pool.clear();
    nextChunk.clear();
    freeChunks.clear();
    nowLane.clear();
    nowHead = 0;
    slab.clear();
    freeSlots.clear();
    _now = 0;
    nextSeq = 0;
    numExecuted = 0;
    eventsSinceCheck = 0;
}

} // namespace hmcsim
