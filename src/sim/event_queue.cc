// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "sim/event_queue.hh"

#include <algorithm>
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
    heap.push_back({});
    siftUp(heap.size() - 1, key);
}

void
EventQueue::siftUp(std::size_t hole, const Key &key)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!firesBefore(key, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = key;
}

EventQueue::Key
EventQueue::popHeap()
{
    const Key top = heap.front();
    const Key last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        // Bottom-up sift-down: walk the root hole to a leaf along the
        // earlier child (one branch-free compare per level), then
        // re-insert the former last key from there. It came from the
        // bottom, so it rarely climbs far; the classic sift-down would
        // pay an unpredictable branch per level to stop it early.
        const std::size_t n = heap.size();
        std::size_t hole = 0;
        for (std::size_t c = 1; c < n; c = 2 * hole + 1) {
            c += c + 1 < n && firesBefore(heap[c + 1], heap[c]);
            heap[hole] = heap[c];
            hole = c;
        }
        siftUp(hole, last);
    }
    return top;
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
        top = popHeap();
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
    ev();
    if (checkerRegistry && ++eventsSinceCheck >= checkEveryN) {
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
                       : !heap.empty() && heap.front().when <= limit)
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
    checkerRegistry = registry;
    checkEveryN = every_n;
    eventsSinceCheck = 0;
}

void
EventQueue::runCheckers()
{
    if (checkerRegistry) {
        eventsSinceCheck = 0;
        checkerRegistry->runAll(_now);
    }
}

std::vector<EventQueue::PendingView>
EventQueue::pendingSnapshot() const
{
    std::vector<PendingView> views;
    views.reserve(pending());
    const auto view = [&](const Key &key) {
        views.push_back({key.when, key.order >> slotBits,
                         &slab[key.order & slotMask]});
    };
    for (const Key &key : heap)
        view(key);
    for (std::size_t i = nowHead; i < nowLane.size(); ++i)
        view(nowLane[i]);
    std::sort(views.begin(), views.end(),
              [](const PendingView &a, const PendingView &b) {
                  return a.seq < b.seq;
              });
    return views;
}

void
EventQueue::restoreBegin(Tick now)
{
    // Restore-time API validation, not per-event work.
    // lint:allow(hot-check)
    HMCSIM_CHECK(pending() == 0 && numExecuted == 0,
                 "snapshot restore requires a fresh queue "
                 "(pending=%llu executed=%llu)",
                 static_cast<unsigned long long>(pending()),
                 static_cast<unsigned long long>(numExecuted));
    _now = now;
}

void
EventQueue::restoreFinish(std::uint64_t next_seq,
                          std::uint64_t num_executed,
                          std::uint64_t events_since_check)
{
    // lint:allow(hot-check)
    HMCSIM_CHECK(next_seq >= nextSeq,
                 "restored seq counter would reissue seqs "
                 "(restore=%llu local=%llu)",
                 static_cast<unsigned long long>(next_seq),
                 static_cast<unsigned long long>(nextSeq));
    nextSeq = next_seq;
    numExecuted = num_executed;
    eventsSinceCheck = events_since_check;
}

void
EventQueue::reset()
{
    heap.clear();
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
