/**
 * @file
 * Tests for the event queue and the allocation-free event core
 * (docs/performance.md): same-tick FIFO for near and far schedules,
 * runUntil boundary semantics, reset, checker drain-point cadence,
 * far-future ordering, queue copies, the sorted-run structure
 * against a (when, seq) sort, Event small-buffer semantics,
 * packet-pool reuse, and an allocation-counting guard over the
 * steady-state scheduling path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "counting_allocator.hh"
#include "protocol/packet_pool.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"

namespace hmcsim
{
namespace
{

TEST(EventQueue, SameTickFifoAcrossManyEvents)
{
    EventQueue q;
    std::vector<int> order;
    // Same tick, many entries: they must pop in seq order however the
    // queue stores their keys.
    for (int i = 0; i < 1000; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.runToCompletion();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(EventQueue, SameTickFifoBetweenEarlyAndLateSchedules)
{
    EventQueue q;
    std::vector<int> order;
    // The first event is scheduled far ahead; the second targets the
    // same tick only after time has advanced to just before it. Seq
    // order must still win.
    const Tick when = 2 * tickUs + 123;
    q.schedule(when, [&order] { order.push_back(0); });
    q.runUntil(when - 10);
    q.schedule(when, [&order] { order.push_back(1); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, InterleavedTicksExecuteInTimeOrder)
{
    EventQueue q;
    std::vector<Tick> fired;
    // Scatter schedules across a few microseconds in a deliberately
    // shuffled order.
    std::vector<Tick> when;
    for (Tick t = 0; t < 64; ++t)
        when.push_back((t * 7919) % (3 * tickUs));
    for (const Tick t : when)
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    q.runToCompletion();
    ASSERT_EQ(fired.size(), when.size());
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SameTickSchedulesFromCallbacksFireAfterEarlierOnes)
{
    EventQueue q;
    std::vector<int> order;
    // Entries scheduled at the tick they fire on queue behind every
    // entry scheduled for that tick earlier, and runUntil runs them
    // when the tick is its limit.
    q.schedule(1000, [&order, &q] {
        order.push_back(0);
        q.scheduleIn(0, [&order] { order.push_back(2); });
        q.schedule(q.now(), [&order, &q] {
            order.push_back(3);
            q.scheduleIn(0, [&order] { order.push_back(4); });
        });
    });
    q.schedule(1000, [&order] { order.push_back(1); });
    q.schedule(1001, [&order] { order.push_back(5); });
    EXPECT_EQ(q.runUntil(1000), 1000u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.pending(), 1u);
    q.runToCompletion();
    EXPECT_EQ(order.back(), 5);
}

TEST(EventQueue, FarDeadlinesFireInOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Refresh-style far-future deadlines (7.8 us out), scheduled
    // latest first.
    for (int i = 7; i >= 0; --i)
        q.schedule(7800 * tickNs + static_cast<Tick>(i),
                   [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.pending(), 8u);
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, NearScheduleAfterIdleFarRunUntilFiresFirst)
{
    EventQueue q;
    std::vector<int> order;
    // An idle runUntil over a far-only queue advances the clock but
    // fires nothing; a later near-future schedule must still fire
    // before the far entry.
    const Tick far = 10 * tickUs;
    q.schedule(far, [&order] { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
    q.schedule(200, [&order] { order.push_back(1); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueue, RunUntilExecutesEventsExactlyAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(999, [&] { ++fired; });
    q.schedule(1000, [&] { ++fired; });
    q.schedule(1000, [&] { ++fired; });
    q.schedule(1001, [&] { ++fired; });
    const Tick stopped = q.runUntil(1000);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(stopped, 1000u);
    EXPECT_EQ(q.now(), 1000u);
    EXPECT_EQ(q.pending(), 1u);
    q.runToCompletion();
    EXPECT_EQ(fired, 4);
}

TEST(EventQueue, RunUntilAdvancesIdleTimeToLimit)
{
    EventQueue q;
    EXPECT_EQ(q.runUntil(5 * tickUs), 5 * tickUs);
    EXPECT_EQ(q.now(), 5 * tickUs);
    // And the queue still accepts/executes later work correctly.
    int fired = 0;
    q.scheduleIn(10, [&] { ++fired; });
    q.runToCompletion();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResetClearsPendingEventsAndClock)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(5 * tickUs, [] {});
    q.runUntil(20);
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
    // Post-reset scheduling starts from tick zero again.
    std::vector<int> order;
    q.schedule(1, [&order] { order.push_back(1); });
    q.schedule(0, [&order] { order.push_back(0); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, CheckerCadenceFollowsEveryN)
{
    EventQueue q;
    CheckerRegistry registry;
    std::vector<Tick> checkedAt;
    registry.addLambda("probe", [&checkedAt](Tick now) -> std::string {
        checkedAt.push_back(now);
        return {};
    });
    q.setCheckers(&registry, 4);
    for (Tick i = 1; i <= 10; ++i)
        q.schedule(i * 100, [] {});
    q.runToCompletion();
    // Drain points: after events 4 and 8, plus the final drain of
    // runToCompletion.
    ASSERT_EQ(checkedAt.size(), 3u);
    EXPECT_EQ(checkedAt[0], 400u);
    EXPECT_EQ(checkedAt[1], 800u);
    EXPECT_EQ(checkedAt[2], 1000u);
    EXPECT_EQ(registry.checksRun(), 3u);
}

TEST(EventQueue, StepExecutesOneEventAtATime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(fired, 2);
}

/** Receiver event for the copy tests: appends its id to the log its
 *  queue registered, so a copied queue logs into its own. */
struct LogFire
{
    using Receiver = std::vector<int>;
    ReceiverId receiver;
    int id;

    void operator()(std::vector<int> &log) const { log.push_back(id); }
};

TEST(EventQueue, ClonedQueueFiresTheSameSequence)
{
    std::vector<int> srcLog;
    std::vector<int> dstLog;
    EventQueue src;
    const ReceiverId log = src.addReceiver(&srcLog);
    // Same-tick groups near and far, scheduled out of tick order.
    for (int id = 0; id < 4; ++id)
        src.schedule(10 * tickUs, LogFire{log, 100 + id});
    for (int id = 0; id < 6; ++id)
        src.schedule(500, LogFire{log, id});
    src.schedule(2 * tickUs, LogFire{log, 50});
    src.schedule(100, LogFire{log, -1});
    // Partly drain: the tick-100 entry and half the tick-500 group,
    // then add one entry at the current tick.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(src.step());
    EXPECT_EQ(srcLog, (std::vector<int>{-1, 0, 1, 2}));
    src.schedule(src.now(), LogFire{log, 7});

    EventQueue dst;
    ASSERT_EQ(dst.addReceiver(&dstLog), log);
    dst = src;
    EXPECT_EQ(dst.now(), src.now());
    EXPECT_EQ(dst.pending(), src.pending());
    EXPECT_EQ(dst.seqCounter(), src.seqCounter());
    EXPECT_EQ(dst.executed(), src.executed());

    // A schedule after the fork sorts after every restored entry of
    // its tick, in both worlds.
    src.schedule(10 * tickUs, LogFire{log, 200});
    dst.schedule(10 * tickUs, LogFire{log, 200});
    srcLog.clear();
    src.runToCompletion();
    dst.runToCompletion();
    EXPECT_EQ(srcLog,
              (std::vector<int>{3, 4, 5, 7, 50, 100, 101, 102, 103, 200}));
    EXPECT_EQ(dstLog, srcLog);
    EXPECT_EQ(dst.executed(), src.executed());
}

// ---------------------------------------------------------------------
// Sorted runs: every order below is the (when, seq) order, whichever
// runs the keys land in.
// ---------------------------------------------------------------------

/** Ids 0..n-1 of schedules at @p when[id], in the order a queue that
 *  fires by (when, seq) must run them; ids were scheduled in id order,
 *  so seq order is id order. */
std::vector<int>
firingOrder(const std::vector<Tick> &when)
{
    std::vector<int> ids(when.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(),
                     [&when](int a, int b) { return when[a] < when[b]; });
    return ids;
}

TEST(EventQueue, StrictlyDecreasingSchedulesFireInOrder)
{
    // Each key precedes every run's tail, so each opens its own run.
    EventQueue q;
    std::vector<int> order;
    const ReceiverId log = q.addReceiver(&order);
    std::vector<Tick> when;
    for (int i = 0; i < 300; ++i) {
        when.push_back(Tick(1000 - i));
        q.schedule(when.back(), LogFire{log, i});
    }
    q.runToCompletion();
    EXPECT_EQ(order, firingOrder(when));
}

TEST(EventQueue, ScatteredPreloadMatchesSortedOrder)
{
    // 10^5 keys over 2^16 ticks: hundreds of runs, and many equal
    // ticks that only seq orders.
    EventQueue q;
    std::vector<int> order;
    const ReceiverId log = q.addReceiver(&order);
    std::vector<Tick> when;
    std::uint64_t x = 1;
    for (int i = 0; i < 100000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        when.push_back(1 + (x >> 48));
        q.schedule(when.back(), LogFire{log, i});
    }
    EXPECT_EQ(q.pending(), when.size());
    q.runToCompletion();
    EXPECT_EQ(order, firingOrder(when));
}

TEST(EventQueue, RunsThatEmptyAndRefillMidDrainKeepOrder)
{
    EventQueue q;
    std::vector<int> order;
    const ReceiverId log = q.addReceiver(&order);
    std::vector<Tick> when;
    const auto at = [&](Tick t) {
        when.push_back(t);
        q.schedule(t, LogFire{log, static_cast<int>(when.size() - 1)});
    };
    // Two runs; the second (tail 50) empties at 50, and by 80 its tail
    // is behind now(), yet it takes the next keys that fit it before a
    // third run opens for 85.
    at(100);
    at(50);
    at(200);
    EXPECT_EQ(q.runUntil(80), 80u);
    at(90);
    at(95);
    at(85);
    q.runToCompletion();
    EXPECT_EQ(order, firingOrder(when));
    EXPECT_EQ(order, (std::vector<int>{1, 5, 3, 4, 0, 2}));

    // Callbacks schedule follow-ups at three delays with jitter while
    // at most about eight keys are pending, so runs drain, empty and
    // refill all through the drain.
    struct Refill
    {
        EventQueue *q;
        std::vector<Tick> *when;
        std::vector<int> *order;
        int id;

        void
        operator()() const
        {
            order->push_back(id);
            if (when->size() >= 20000)
                return;
            const std::uint64_t h = std::uint64_t(id) * 0x9E3779B97F4A7C15ULL;
            static constexpr Tick delays[] = {3, 10, 40};
            const unsigned n = q->pending() < 8 && h >> 63 ? 2 : 1;
            for (unsigned k = 0; k < n; ++k) {
                when->push_back(q->now() + delays[(h >> (20 + k)) % 3] +
                                (h >> (30 + 4 * k)) % 5);
                q->schedule(when->back(),
                            Refill{q, when, order,
                                   static_cast<int>(when->size() - 1)});
            }
        }
    };
    order.clear();
    when.clear();
    q.reset();
    for (int i = 0; i < 3; ++i) {
        when.push_back(Tick(1 + 7 * i));
        q.schedule(when.back(), Refill{&q, &when, &order, i});
    }
    q.runToCompletion();
    ASSERT_GE(when.size(), 20000u);
    EXPECT_EQ(order, firingOrder(when));
}

TEST(EventQueue, ClonedQueueWithSeveralRunsFiresTheSameSequence)
{
    // A permutation of 30 ticks lands in several runs; drain a few,
    // fork, and schedule the same keys into both worlds.
    std::vector<int> srcLog;
    std::vector<int> dstLog;
    std::vector<Tick> when;
    EventQueue src;
    const ReceiverId log = src.addReceiver(&srcLog);
    for (int i = 0; i < 30; ++i) {
        when.push_back(100 + Tick((i * 7) % 30) * 10);
        src.schedule(when.back(), LogFire{log, i});
    }
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(src.step());

    EventQueue dst;
    ASSERT_EQ(dst.addReceiver(&dstLog), log);
    dst = src;
    EXPECT_EQ(dst.pending(), src.pending());
    for (const Tick t : {Tick{395}, Tick{175}, Tick{385}, Tick{175}}) {
        when.push_back(t);
        const int id = static_cast<int>(when.size() - 1);
        src.schedule(t, LogFire{log, id});
        dst.schedule(t, LogFire{log, id});
    }
    src.runToCompletion();
    dst.runToCompletion();
    // The 7 fired before the fork are the earliest of all 34 keys.
    EXPECT_EQ(srcLog, firingOrder(when));
    EXPECT_EQ(dstLog, std::vector<int>(srcLog.begin() + 7, srcLog.end()));
}

TEST(SboEvent, NonTrivialCapturesDestructOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue q;
        int seen = 0;
        q.schedule(5, [token, &seen] { seen = *token; });
        token.reset();
        EXPECT_FALSE(watch.expired()); // queue keeps the capture alive
        q.runToCompletion();
        EXPECT_EQ(seen, 7);
    }
    EXPECT_TRUE(watch.expired());
}

TEST(SboEvent, UnexecutedNonTrivialCapturesReleaseOnReset)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventQueue q;
    q.schedule(5, [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());
    q.reset(); // dropped without executing: capture must still die
    EXPECT_TRUE(watch.expired());
}

TEST(SboEvent, StdFunctionFitsViaManagerPath)
{
    // A std::function callable (the test-scaffolding case) rides the
    // manager path and survives queue-internal relocation.
    EventQueue q;
    int fired = 0;
    std::function<void()> fn = [&fired] { ++fired; };
    q.schedule(3 * tickUs, fn); // into the slab, moved out to fire
    q.runToCompletion();
    EXPECT_EQ(fired, 1);
}

TEST(SboEvent, MoveTransfersOwnership)
{
    int fired = 0;
    Event a = [&fired] { ++fired; };
    Event b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(fired, 1);
    Event c;
    EXPECT_FALSE(static_cast<bool>(c));
    c = std::move(b);
    c();
    EXPECT_EQ(fired, 2);
}

TEST(PacketPool, ReusesReleasedSlots)
{
    PacketPool pool;
    const std::uint32_t a = pool.acquire();
    pool[a].id = 42;
    pool.release(a);
    const std::uint32_t b = pool.acquire();
    EXPECT_EQ(a, b);            // LIFO free list hands the hot slot back
    EXPECT_EQ(pool[b].id, 0u);  // ...reset to a fresh Packet
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.highWater(), 1u);
    pool.release(b);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.capacity(), 1u);
}

TEST(PacketPool, GrowsUnderLoad)
{
    PacketPool pool;
    std::vector<std::uint32_t> live;
    for (int i = 0; i < 9; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.capacity(), 9u);
    EXPECT_EQ(pool.highWater(), 9u);
    for (const std::uint32_t slot : live)
        pool.release(slot);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.capacity(), 9u); // slots stay for reuse
}

TEST(PacketPool, CopyKeepsPacketsInTheirSlots)
{
    PacketPool pool;
    const std::uint32_t a = pool.acquire();
    const std::uint32_t b = pool.acquire();
    pool[a].id = 1;
    pool[b].id = 2;
    pool.release(a);
    PacketPool copy;
    copy = pool;
    EXPECT_EQ(copy[b].id, 2u);
    EXPECT_EQ(copy.live(), 1u);
    EXPECT_EQ(copy.acquire(), a); // the free list came along
}

TEST(AllocationGuard, SteadyStateEventLoopIsAllocationFree)
{
    EventQueue q;
    // 64 interleaved self-scheduling chains, mimicking the port/vault
    // pipelines: warm 2 us so the runs, the slab and its free list
    // reach their steady capacity...
    std::uint64_t executed = 0;
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *executed;
        Tick period;

        void
        operator()() const
        {
            ++*executed;
            q->scheduleIn(period, *this);
        }
    };
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<Tick>(i),
                   Chain{&q, &executed, Tick{97} + Tick(i % 7)});
    q.runUntil(2 * tickUs);
    const std::uint64_t warmed = executed;
    ASSERT_GT(warmed, 100000u);

    // ...then the measured region must not allocate at all: no heap
    // traffic per schedule or per fire (the acceptance criterion of
    // docs/performance.md).
    const std::size_t before = g_allocations;
    q.runUntil(4 * tickUs);
    const std::size_t during = g_allocations - before;
    EXPECT_GE(executed, 2 * warmed - 64);
    EXPECT_EQ(during, 0u);
}

TEST(AllocationGuard, PoolAcquireReleaseCycleIsAllocationFree)
{
    PacketPool pool;
    // Warm: force the slots into existence at a realistic in-flight
    // depth.
    std::vector<std::uint32_t> live;
    live.reserve(128);
    for (int i = 0; i < 128; ++i)
        live.push_back(pool.acquire());
    for (const std::uint32_t slot : live)
        pool.release(slot);

    const std::size_t before = g_allocations;
    for (int round = 0; round < 1000; ++round) {
        live.clear();
        for (int i = 0; i < 128; ++i)
            live.push_back(pool.acquire());
        for (const std::uint32_t slot : live)
            pool.release(slot);
    }
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(pool.capacity(), 128u);
}

} // namespace
} // namespace hmcsim
