/**
 * @file
 * Simulator performance: how fast the discrete-event core and the
 * full platform run on the host machine. Not a paper artifact --
 * this is the bench a simulator project ships so users can budget
 * their sweeps. It reports and guards (docs/performance.md):
 *
 *  - event core: the EventQueue's wall time, events/s and
 *    ns/event on a pending-heavy drain and on steady self-scheduling
 *    chains (reported, not guarded);
 *  - address_decode: AddressMapper's precompiled plan raced against
 *    its div/mod decodeReference() on one address stream,
 *    bit-identical by assertion;
 *  - snapshot_fork: a cold 12-point measure-axis sweep raced against
 *    the same sweep served from one warmed, forked simulator
 *    (SweepOptions::warmStart), stat digests bit-identical by
 *    assertion;
 *  - platform: the fig06-style reference workload (full-scale 9-port
 *    ro GUPS), events, wall ms and ns/event (reported, not guarded),
 *    plus the requests it completed and events per request: a cost
 *    count that host noise cannot move.
 *
 * Both A/Bs run interleaved pairs, alternating which side goes first,
 * and read the median of the per-pair ratios with its p25/p75.
 * Results go to BENCH_simcore.json (override the path with
 * HMCSIM_PERF_JSON). With HMCSIM_PERF_GUARD=1 (the CI perf-smoke job)
 * the process fails unless both median ratios reach 1.5x. End-to-end
 * regressions are judged by the CI perf-pair job, which runs
 * perfbench's campaign and warm-backends on the parent and the change
 * (tools/perf_pair.py).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "hmc/address_mapper.hh"
#include "host/experiment.hh"
#include "runner/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace hmcsim;
using namespace hmcsim::benchutil;

/** Wall time of one call of @p run, in ms. */
template <typename Fn>
double
wallMs(Fn &&run)
{
    const auto start = std::chrono::steady_clock::now();
    run();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/** Nearest-rank quantile @p q of @p values (the rule sim/stats.hh and
 *  perfbench use). */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()));
    return values[std::min(rank, values.size() - 1)];
}

/** Median of @p reps calls of @p run, in ms. */
template <typename Fn>
double
medianWallMs(unsigned reps, Fn &&run)
{
    std::vector<double> ms;
    for (unsigned i = 0; i < reps; ++i)
        ms.push_back(wallMs(run));
    return quantile(std::move(ms), 0.5);
}

/** An A/B race: the median wall time of each side and the quartiles
 *  of the per-pair slow/fast ratios. */
struct PairedRace
{
    unsigned pairs = 0;
    double slowMs = 0.0;
    double fastMs = 0.0;
    double ratioP25 = 0.0;
    double ratioMedian = 0.0;
    double ratioP75 = 0.0;
};

/**
 * Race @p slow against @p fast over @p pairs interleaved pairs,
 * alternating which side goes first so neither always runs on the
 * cache and frequency state the other left. Each pair yields one
 * ratio slow/fast; the guard reads their median, which, unlike the
 * best pair, is not biased upward by the number of pairs.
 */
template <typename Slow, typename Fast>
PairedRace
racePairs(unsigned pairs, Slow &&slow, Fast &&fast)
{
    std::vector<double> slow_ms, fast_ms, ratios;
    for (unsigned i = 0; i < pairs; ++i) {
        double s, f;
        if (i % 2 == 0) {
            s = wallMs(slow);
            f = wallMs(fast);
        } else {
            f = wallMs(fast);
            s = wallMs(slow);
        }
        slow_ms.push_back(s);
        fast_ms.push_back(f);
        ratios.push_back(s / f);
    }
    PairedRace race;
    race.pairs = pairs;
    race.slowMs = quantile(slow_ms, 0.5);
    race.fastMs = quantile(fast_ms, 0.5);
    race.ratioP25 = quantile(ratios, 0.25);
    race.ratioMedian = quantile(ratios, 0.5);
    race.ratioP75 = quantile(std::move(ratios), 0.75);
    return race;
}

/** The median pair ratio each A/B must reach under HMCSIM_PERF_GUARD. */
constexpr double ratioBudget = 1.5;

// ---------------------------------------------------------------------
// Event core
// ---------------------------------------------------------------------

/** Events in the pending-heavy drain workload. */
constexpr std::uint64_t drainEvents = 1000000;
/** Events in the steady-state chain workload. */
constexpr std::uint64_t chainEvents = 2000000;
/** Interleaved self-scheduling chains (ports x pipeline stages). */
constexpr unsigned chainCount = 64;

/**
 * Pending-heavy drain: preload @p n events at scattered ticks, then
 * pop them all. Exercises pure scheduling-structure cost at ~870x
 * the deepest queue a simulator run was measured to keep (1,155
 * pending, docs/performance.md): it shows how the runs scale, not
 * what a run pays.
 */
std::uint64_t
pendingDrain(EventQueue &q, std::uint64_t n)
{
    Xoshiro256StarStar rng(7);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        // Spread across ~100 us of simulated time.
        q.schedule(rng.nextBounded(100 * tickUs), [&fired] { ++fired; });
    }
    q.runToCompletion();
    return fired;
}

/**
 * Steady-state chains: every fired event schedules the next, with a
 * capture set sized like the production schedulers' (a component
 * pointer, a pooled-packet-style pointer, a scalar).
 */
std::uint64_t
steadyChains(EventQueue &q, std::uint64_t total)
{
    std::uint64_t remaining = total;
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *remaining;
        Tick period;

        void
        operator()() const
        {
            if (*remaining > 0) {
                --*remaining;
                q->scheduleIn(period, *this);
            }
        }
    };
    for (unsigned i = 0; i < chainCount; ++i)
        q.schedule(i, Chain{&q, &remaining, 97 + (i % 7)});
    q.runToCompletion();
    return q.executed();
}

// ---------------------------------------------------------------------
// Address decode A/B: the precompiled plan against the div/mod
// formulation AddressMapper keeps as decodeReference().
// ---------------------------------------------------------------------

/** Addresses decoded per side. */
constexpr std::size_t decodeCount = 4000000;

/** Fold a decoded address into a checksum (prevents DCE and doubles
 *  as the bit-identity witness between the two decode paths). */
inline std::uint64_t
foldDecoded(std::uint64_t acc, const DecodedAddress &d)
{
    acc = acc * 1099511628211ULL ^ d.vault;
    acc = acc * 1099511628211ULL ^ d.bank;
    acc = acc * 1099511628211ULL ^ d.quadrant;
    acc = acc * 1099511628211ULL ^ d.row;
    acc = acc * 1099511628211ULL ^ d.column;
    return acc;
}

std::uint64_t
mapperDecodeRun(const AddressMapper &mapper,
                const std::vector<Addr> &addrs, bool reference,
                std::uint64_t acc)
{
    if (reference) {
        for (const Addr a : addrs)
            acc = foldDecoded(acc, mapper.decodeReference(a));
    } else {
        for (const Addr a : addrs)
            acc = foldDecoded(acc, mapper.decode(a));
    }
    return acc;
}

// ---------------------------------------------------------------------
// Snapshot-fork A/B (copy-on-write simulator fork): a measure-axis
// sweep re-simulates one identical warm-up per point when run cold;
// warm-start mode (SweepOptions::warmStart) simulates it once and
// serves every window from a fork of the parked module
// (Ac510Module::fork via runExperimentFrom). Results and stat digests
// are bit-identical either way -- asserted before timing -- so the
// A/B isolates pure warm-up amortization on one worker.
// ---------------------------------------------------------------------

/** Windows on the measure axis (the canonical warm-start sweep). */
constexpr unsigned forkSweepPoints = 12;

SweepAxes
forkSweepAxes()
{
    SweepAxes axes;
    axes.base.warmup = 40 * tickUs;
    for (unsigned i = 0; i < forkSweepPoints; ++i)
        axes.measures.push_back((4 + 2 * i) * tickUs);
    return axes;
}

/** Exact bits of a double, for the bit-identity witness. */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** One-worker sweep over the fork axes; returns the per-point stat
 *  digests folded with the measured bandwidth bits (witness + DCE
 *  anchor). deriveSeeds is off so the measure axis shares one
 *  warm-up (the documented warm-start pairing). */
std::uint64_t
forkSweepRun(bool warm_start, std::uint64_t acc)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.sweepSeed = benchSweepSeed;
    opts.deriveSeeds = false;
    opts.warmStart = warm_start;
    SweepRunner runner(opts);
    for (const SweepPointResult &point : runner.run(forkSweepAxes())) {
        acc = acc * 1099511628211ULL ^ point.statDigest;
        acc = acc * 1099511628211ULL ^ doubleBits(point.result.rawGBps);
    }
    return acc;
}

struct SimcoreResults
{
    double drainMs = 0.0;
    double chainMs = 0.0;
    std::uint64_t platformEvents = 0;
    /** Requests the platform run completed: with platformEvents, a
     *  deterministic cost per request that host noise cannot move. */
    std::uint64_t platformRequests = 0;
    double platformWallMs = 0.0;
    double platformSimUs = 0.0;
    PairedRace decode;
    PairedRace fork;
};

/** Events per second and ns per event of @p events run in @p ms. */
double
eventsPerSec(std::uint64_t events, double ms)
{
    return static_cast<double>(events) / (ms / 1e3);
}

double
nsPerEvent(std::uint64_t events, double ms)
{
    return ms * 1e6 / static_cast<double>(events);
}

double
eventsPerRequest(const SimcoreResults &r)
{
    return static_cast<double>(r.platformEvents) /
           static_cast<double>(r.platformRequests);
}

const SimcoreResults &
results()
{
    static const SimcoreResults r = [] {
        SimcoreResults out;
        out.drainMs = medianWallMs(3, [] {
            EventQueue q;
            benchmark::DoNotOptimize(pendingDrain(q, drainEvents));
        });
        out.chainMs = medianWallMs(3, [] {
            EventQueue q;
            benchmark::DoNotOptimize(steadyChains(q, chainEvents));
        });

        // Fig. 6-style reference workload: full-scale random ro GUPS,
        // all 9 ports, 200 us of simulated time (~15 ms a run).
        const Tick window = 200 * tickUs;
        out.platformSimUs = ticksToUs(window);
        out.platformWallMs = medianWallMs(7, [&out, window] {
            Ac510Config cfg;
            Ac510Module module(cfg);
            module.start();
            module.runUntil(window);
            out.platformEvents = module.queue().executed();
            const GupsPortStats done = module.aggregateStats();
            out.platformRequests = done.readsCompleted + done.writesCompleted;
        });

        const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                   MaxBlockSize::B128);
        std::vector<Addr> addrs(decodeCount);
        {
            Xoshiro256StarStar rng(11);
            for (Addr &a : addrs)
                a = rng.nextBounded(4ull * gib);
        }
        if (mapperDecodeRun(mapper, addrs, true, 0) !=
            mapperDecodeRun(mapper, addrs, false, 0))
            fatal("address-plan decode diverges from the div/mod "
                  "reference");
        // Each timed run folds in a fresh salt so the optimizer cannot
        // treat one run as a repeat of the last and hoist it.
        std::uint64_t salt = 1;
        out.decode = racePairs(
            9,
            [&] {
                benchmark::DoNotOptimize(
                    mapperDecodeRun(mapper, addrs, true, salt++));
            },
            [&] {
                benchmark::DoNotOptimize(
                    mapperDecodeRun(mapper, addrs, false, salt++));
            });

        if (forkSweepRun(false, 0) != forkSweepRun(true, 0))
            fatal("warm-start fork sweep diverges from the cold "
                  "sweep");
        out.fork = racePairs(
            7,
            [&] { benchmark::DoNotOptimize(forkSweepRun(false, salt++)); },
            [&] { benchmark::DoNotOptimize(forkSweepRun(true, salt++)); });
        return out;
    }();
    return r;
}

void
printRace(const char *what, const char *slow, const char *fast,
          const PairedRace &race)
{
    std::printf("%s (%u interleaved pairs): %s %.1f ms vs %s %.1f ms, "
                "median pair ratio %.2fx (p25 %.2fx, p75 %.2fx; "
                "budget %.1fx)\n",
                what, race.pairs, slow, race.slowMs, fast, race.fastMs,
                race.ratioMedian, race.ratioP25, race.ratioP75,
                ratioBudget);
}

void
printFigure()
{
    const SimcoreResults &r = results();
    std::printf("\nEvent core (median of 3):\n\n");
    TextTable table({"Workload", "ms", "M events/s", "ns/event"});
    table.addRow({"1e6-pending drain", strfmt("%.1f", r.drainMs),
                  strfmt("%.1f", eventsPerSec(drainEvents, r.drainMs) / 1e6),
                  strfmt("%.1f", nsPerEvent(drainEvents, r.drainMs))});
    table.addRow({"2e6-event steady chains", strfmt("%.1f", r.chainMs),
                  strfmt("%.1f", eventsPerSec(chainEvents, r.chainMs) / 1e6),
                  strfmt("%.1f", nsPerEvent(chainEvents, r.chainMs))});
    table.print();
    std::printf("\n");

    printRace("Address decode (4M, bit-identical)", "div/mod reference",
              "plan", r.decode);
    printRace("Snapshot-fork warm start (12-point measure-axis sweep, "
              "one worker, bit-identical digests)",
              "cold", "warmed", r.fork);

    std::printf("\nPlatform (fig06-style, 9-port ro, %.0f us sim, median "
                "of 7): %llu events in %.1f ms = %.1fM events/s "
                "(%.1f ns/event), %llu requests (%.3f events/request)\n\n",
                r.platformSimUs,
                static_cast<unsigned long long>(r.platformEvents),
                r.platformWallMs,
                eventsPerSec(r.platformEvents, r.platformWallMs) / 1e6,
                nsPerEvent(r.platformEvents, r.platformWallMs),
                static_cast<unsigned long long>(r.platformRequests),
                eventsPerRequest(r));
}

void
writeEventCore(std::FILE *f, const char *name, std::uint64_t events,
               double ms, const char *sep)
{
    std::fprintf(f,
                 "    \"%s\": {\"events\": %llu, \"ms\": %.3f, "
                 "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f}%s\n",
                 name, static_cast<unsigned long long>(events), ms,
                 eventsPerSec(events, ms), nsPerEvent(events, ms), sep);
}

void
writeRace(std::FILE *f, const char *name, const char *fields,
          const char *slow, const char *fast, const PairedRace &race)
{
    std::fprintf(f,
                 "  \"%s\": {%s, \"pairs\": %u, \"%s_ms\": %.3f, "
                 "\"%s_ms\": %.3f, \"ratio\": {\"median\": %.3f, "
                 "\"p25\": %.3f, \"p75\": %.3f}, \"budget\": %.1f},\n",
                 name, fields, race.pairs, slow, race.slowMs, fast,
                 race.fastMs, race.ratioMedian, race.ratioP25,
                 race.ratioP75, ratioBudget);
}

void
writeJson()
{
    const SimcoreResults &r = results();
    const char *path = std::getenv("HMCSIM_PERF_JSON");
    if (!path)
        path = "BENCH_simcore.json";
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"simcore\",\n");
    std::fprintf(f, "  \"event_core\": {\n");
    writeEventCore(f, "pending_drain", drainEvents, r.drainMs, ",");
    writeEventCore(f, "steady_chains", chainEvents, r.chainMs, "");
    std::fprintf(f, "  },\n");
    writeRace(f, "address_decode", strfmt("\"addresses\": %zu",
                                          decodeCount).c_str(),
              "reference", "plan", r.decode);
    writeRace(f, "snapshot_fork",
              strfmt("\"points\": %u, \"jobs\": 1, \"warmup_us\": 40",
                     forkSweepPoints)
                  .c_str(),
              "cold", "warm", r.fork);
    std::fprintf(
        f,
        "  \"platform\": {\"workload\": \"fig06-style 9-port ro "
        "random 200us\", \"events\": %llu, \"wall_ms\": %.3f, "
        "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f, "
        "\"requests\": %llu, \"events_per_request\": %.4f}\n",
        static_cast<unsigned long long>(r.platformEvents),
        r.platformWallMs, eventsPerSec(r.platformEvents, r.platformWallMs),
        nsPerEvent(r.platformEvents, r.platformWallMs),
        static_cast<unsigned long long>(r.platformRequests),
        eventsPerRequest(r));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n\n", path);
}

// ---------------------------------------------------------------------
// google-benchmark registrations.
// ---------------------------------------------------------------------

void
BM_EventQueueThroughput(benchmark::State &state)
{
    // Steady-state scheduling churn: every fired event schedules
    // another until the budget runs out, with 64 chains interleaving.
    std::uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue queue;
        executed += steadyChains(queue, 100000);
        benchmark::DoNotOptimize(executed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
    state.SetLabel("events");
}
BENCHMARK(BM_EventQueueThroughput)->Unit(benchmark::kMillisecond);

void
BM_FullPlatformSimulation(benchmark::State &state)
{
    // Simulated-time throughput of the full 9-port system under load.
    const Tick window = 200 * tickUs;
    std::uint64_t transactions = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Ac510Config cfg;
        Ac510Module module(cfg);
        module.start();
        module.runUntil(window);
        transactions += module.aggregateStats().readsCompleted;
        events += module.queue().executed();
        benchmark::DoNotOptimize(transactions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(transactions));
    state.SetLabel("transactions");
    state.counters["sim_us_per_iter"] = ticksToUs(window);
    state.counters["events_per_iter"] = static_cast<double>(
        events / static_cast<std::uint64_t>(
                     state.iterations() ? state.iterations() : 1));
}
BENCHMARK(BM_FullPlatformSimulation)->Unit(benchmark::kMillisecond);

void
BM_AddressDecode(benchmark::State &state)
{
    const AddressMapper mapper(HmcConfig::gen2_4GB(),
                               MaxBlockSize::B128);
    Xoshiro256StarStar rng(5);
    for (auto _ : state) {
        const DecodedAddress d =
            mapper.decode(rng.nextBounded(4ull * gib));
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressDecode);

void
BM_ExperimentEndToEnd(benchmark::State &state)
{
    // Cost of one complete runExperiment (construction + warmup +
    // measurement), the unit of every sweep in bench/.
    for (auto _ : state) {
        ExperimentConfig cfg;
        cfg.warmup = 20 * tickUs;
        cfg.measure = 100 * tickUs;
        benchmark::DoNotOptimize(runExperiment(cfg).rawGBps);
    }
}
BENCHMARK(BM_ExperimentEndToEnd)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    hmcsim::setInformEnabled(false);
    printFigure();
    writeJson();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    const char *guard = std::getenv("HMCSIM_PERF_GUARD");
    if (guard && guard[0] == '1') {
        const SimcoreResults &r = results();
        int failures = 0;
        const auto require = [&failures](const PairedRace &race,
                                          const char *what) {
            if (race.ratioMedian < ratioBudget) {
                std::fprintf(stderr,
                             "FAIL: %s median pair ratio is %.2fx "
                             "(p25 %.2fx, p75 %.2fx; budget %.1fx)\n",
                             what, race.ratioMedian, race.ratioP25,
                             race.ratioP75, ratioBudget);
                ++failures;
            }
        };
        require(r.decode, "precompiled address plan");
        require(r.fork, "snapshot-fork warmed sweep (per worker)");
        if (failures)
            return 1;
    }
    return 0;
}
