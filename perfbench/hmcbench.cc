/**
 * @file
 * hmcbench: the in-process program behind the repository benchmark.
 *
 * Runs one workload through the simulator's public API for a fixed
 * host-time budget and prints one JSON object of raw measurements on
 * stdout; perfbench/run.py turns it into the benchmark's metrics.
 *
 *   hmcbench --workload W --seed N --seconds S --trace 0|1
 *            --scratch DIR [--spans FILE]
 *
 * Workloads (perfbench/layers.json records why each was chosen):
 *   campaign       cold paper-figure sweep at the default windows
 *                  + stream GUPS + power solves
 *   warm-backends  warm-start measure-axis sweep over hmc/ddr4/nvm
 *   fleet          runFleet: 4 nodes, keyed routing, MMPP bursts
 *   store-replay   serve-style lookups against a SharedResultStore
 *
 * With --trace 1 every untraced iteration is followed by a traced one
 * that makes the same library calls one by one inside spans (name,
 * tag, start, end, parent), kept in memory and written to --spans at
 * exit. The traced iteration's outputs must equal the untraced one's,
 * which proves both executed the same program.
 *
 * Everything runs in this one process on at most two threads: no
 * sockets and no child processes.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/store.hh"
#include "dist/wire.hh"
#include "gups/arrival_feed.hh"
#include "gups/patterns.hh"
#include "hmc/address_mapper.hh"
#include "hmc/config.hh"
#include "host/ac510.hh"
#include "host/experiment.hh"
#include "mem/backend.hh"
#include "power/power_model.hh"
#include "runner/config_digest.hh"
#include "runner/result_cache.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/fleet.hh"
#include "service/node.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"
#include "thermal/cooling.hh"

namespace hmcsim::perfbench
{
namespace
{

/** Worker threads of every parallel section (the box has 4 shared
 *  cores; more threads would measure the neighbours). */
constexpr unsigned benchJobs = 2;

// Workload sizes. One iteration is one pass over a workload's inputs;
// the sizes keep an iteration between ~0.05 s and ~2 s so a run holds
// enough iterations for a steady lower decile. Campaign points keep
// ExperimentConfig's default windows (100 us + 1 ms), the ones the
// paper-figure benches run: there the event loop takes >99% of a
// point, while at 5 + 10 us windows build, registerStats, digest and
// teardown took 12% of it.
constexpr unsigned streamRepetitions = 16;
constexpr Tick warmBackendsWarmup = 40 * tickUs;
constexpr std::uint64_t fleetRequests = 100000;
constexpr Tick storeWarmup = 1 * tickUs;
constexpr Tick storeMeasure = 2 * tickUs;
/** Requests per stored point in one store-replay session: the first
 *  is served from the store, the other 9 from the session's memory
 *  tier. Store loads are then 10% of requests, so p50 lies inside the
 *  memory-tier distribution and p99 inside the store-tier one instead
 *  of on a boundary between the two, where a quantile is unsteady. A
 *  session has 1080 requests, 10 of them beyond p99, and takes ~0.06 s,
 *  so a run holds a few hundred sessions. */
constexpr unsigned requestsPerPoint = 10;
/** A run traces iterations until it holds this many of them or this
 *  many spans, which bounds the span log and its analysis. */
constexpr unsigned maxTracedIterations = 20;
constexpr std::size_t maxSpans = 100000;
/** Set-up runs once before the first iteration and again between
 *  iterations, taking setupShare of the run and at least minSetups
 *  set-ups; run.py reports their lower decile. Spread over the run,
 *  the set-ups meet the same machine conditions as the iterations. On
 *  a shared 4-vCPU VM, five set-ups made back to back at the start of
 *  a run gave medians 20-30% apart between runs. */
constexpr unsigned minSetups = 5;
constexpr double setupShare = 0.2;

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - processStart)
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Spans

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t thread = 0;
    /** Static strings only: spans outlive every workload object. */
    const char *name = "";
    const char *tag = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Work counted inside the span (events executed), else 0. */
    std::uint64_t count = 0;
};

class SpanLog
{
  public:
    std::uint32_t nextId() { return ++lastId; }
    std::size_t size() const { return lastId; }

    void
    add(const Span &span)
    {
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back(span);
    }

    /** One JSON object per line; called once, after every thread
     *  that recorded spans has been joined. */
    bool
    write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        for (const Span &s : spans) {
            std::fprintf(out,
                         "{\"id\":%u,\"parent\":%u,\"thread\":%u,"
                         "\"name\":\"%s\",\"tag\":\"%s\","
                         "\"start_ns\":%lld,\"end_ns\":%lld,"
                         "\"count\":%llu}\n",
                         s.id, s.parent, s.thread, s.name, s.tag,
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs),
                         static_cast<unsigned long long>(s.count));
        }
        return std::fclose(out) == 0;
    }

  private:
    std::atomic<std::uint32_t> lastId{0};
    std::mutex mutex;
    std::vector<Span> spans;
};

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next++;
    return index;
}

/** Innermost open span of the calling thread (0 = none). */
thread_local std::uint32_t openSpan = 0;

constexpr std::uint32_t inheritParent = ~0u;

/**
 * RAII span. The parent defaults to the thread's innermost open span;
 * a task handed to a pool thread names its parent explicitly. A null
 * log makes the scope a no-op, so untraced code shares the call sites.
 */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, const char *tag = "",
          std::uint32_t parent = inheritParent)
        : log(log)
    {
        if (!log)
            return;
        span.id = log->nextId();
        span.parent = parent == inheritParent ? openSpan : parent;
        span.thread = threadIndex();
        span.name = name;
        span.tag = tag;
        saved = openSpan;
        openSpan = span.id;
        span.startNs = nowNs();
    }

    ~Scope()
    {
        if (!log)
            return;
        span.endNs = nowNs();
        openSpan = saved;
        log->add(span);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setTag(const char *tag) { span.tag = tag; }
    void setCount(std::uint64_t n) { span.count = n; }
    std::uint32_t id() const { return span.id; }

  private:
    SpanLog *log;
    Span span;
    std::uint32_t saved = 0;
};

// ---------------------------------------------------------------------
// Measurement helpers

/** Host latency, in nanoseconds, of each item of one iteration (a
 *  sweep point, a runFleet call, a served request), in the iteration's
 *  fixed item order. One buffer serves every iteration and each
 *  iteration is printed as it ends, so this bookkeeping stays out of
 *  peak RSS. */
using ItemLatencies = std::vector<std::uint64_t>;

/** FNV-1a over the exact bytes of the values fed to it. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            hash ^= b;
            hash *= 1099511628211ULL;
        }
    }
    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 1469598103934665603ULL;
};

std::uint64_t
sampleStatsDigest(const SampleStats &s)
{
    Fnv f;
    f.add(s.count());
    f.add(s.sum());
    f.add(s.min());
    f.add(s.max());
    f.add(s.mean());
    return f.value();
}

/** Solve every Table III cooling configuration for one traffic
 *  point (Figs. 9-12) and fold the solutions into one digest. */
std::uint64_t
solveCoolings(SpanLog *log, const PowerModel &power,
              const TrafficSummary &traffic, RequestMix mix)
{
    Fnv f;
    for (unsigned c = 1; c <= coolingConfigs().size(); ++c) {
        Scope s(log, "power.solve");
        const PowerThermalResult r =
            power.solve(traffic, mix, coolingConfig(c));
        f.add(r.hmcDynamicW);
        f.add(r.leakageW);
        f.add(r.systemW);
        f.add(r.temperatureC);
        f.add(r.failure);
    }
    return f.value();
}

/** Workload-specific stream of derived seeds (never 0). */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t v = splitMix64(state);
    return v ? v : 1;
}

const AddressMapper &
paperMapper()
{
    static const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                      MaxBlockSize::B128);
    return mapper;
}

/** The grid store-replay publishes: the paper's campaign axes
 *  (Figs. 6-8, 13, 16-18), pattern (16 vaults .. 1 bank) x mix x size
 *  (32 and 128 B) x addressing mode, 108 points. Two sizes rather than
 *  four keep one set-up near 0.15 s, so a run holds enough set-ups for
 *  a steady lower decile. */
std::vector<ExperimentConfig>
storeGrid()
{
    SweepAxes axes;
    axes.patterns = paperPatternAxis(paperMapper());
    axes.mixes = {RequestMix::ReadOnly, RequestMix::WriteOnly,
                  RequestMix::ReadModifyWrite};
    axes.sizes = {32, 128};
    axes.modes = {AddressingMode::Random, AddressingMode::Linear};
    axes.base.warmup = storeWarmup;
    axes.base.measure = storeMeasure;
    return axes.expand();
}

/**
 * The campaign's points: every paper pattern x mix once, at the default
 * windows, with request size and addressing mode rotating through the
 * 8 combinations of 16-128 B x random/linear so that each size and mode
 * meets every mix and a spread of patterns. The full cross product
 * (216 points) would take ~15 s per pass at these windows.
 */
std::vector<ExperimentConfig>
campaignGrid()
{
    const std::vector<AccessPattern> patterns =
        paperPatternAxis(paperMapper());
    const RequestMix mixes[] = {RequestMix::ReadOnly,
                                RequestMix::WriteOnly,
                                RequestMix::ReadModifyWrite};
    const Bytes sizes[] = {16, 32, 64, 128};
    const AddressingMode modes[] = {AddressingMode::Random,
                                    AddressingMode::Linear};
    std::vector<ExperimentConfig> grid;
    for (const AccessPattern &pattern : patterns) {
        for (const RequestMix mix : mixes) {
            const std::size_t k = grid.size() % 8;
            ExperimentConfig cfg;
            cfg.pattern = pattern;
            cfg.mix = mix;
            cfg.requestSize = sizes[k % 4];
            cfg.mode = modes[k / 4];
            grid.push_back(cfg);
        }
    }
    return grid;
}

/** Per-iteration outcome handed to run.py. */
struct Iteration
{
    bool traced = false;
    double wallS = 0.0;
    /** Untraced only: VmHWM over the iteration, reset before it. */
    double peakRssMb = 0.0;
    std::uint64_t items = 0;
    /** Output fingerprints, compared by run.py against the recorded
     *  reference (default seed) or the first untraced iteration. */
    std::vector<std::uint64_t> outputs;
    /** Checks made inside the iteration (store-replay lines). */
    std::uint64_t checked = 0;
    std::uint64_t failed = 0;
    /** Traced only: model counts and layer counters. */
    std::map<std::string, double> counts;
};

/**
 * Sum the model counters the per-layer report names out of a
 * "system"-rooted registry into @p counts.
 */
void
addModelCounts(const StatRegistry &registry,
               std::map<std::string, double> &counts)
{
    static const std::map<std::string, std::string> controller = {
        {"requests_submitted", "host.ctrl.requests_submitted"},
        {"flow_control_stalls", "host.ctrl.flow_control_stalls"},
        {"link_retries", "host.ctrl.link_retries"},
        {"tx_wire_bytes", "link.tx_wire_bytes"},
        {"rx_wire_bytes", "link.rx_wire_bytes"},
    };
    static const std::map<std::string, std::string> port = {
        {"reads_issued", "gups.reads_issued"},
        {"writes_issued", "gups.writes_issued"},
    };
    static const std::map<std::string, std::string> cube = {
        {"requests", "hmc.requests"},
        {"local_quadrant_hits", "hmc.local_quadrant_hits"},
    };
    static const std::map<std::string, std::string> vault = {
        {"row_hits", "hmc.row_hits"},
        {"bus_busy_us", "hmc.vault_bus_busy_us"},
        {"nvm_reads", "mem.nvm_reads"},
        {"nvm_writes", "mem.nvm_writes"},
    };
    for (const StatEntry *entry : registry.matching("system.")) {
        std::vector<std::string> parts;
        std::stringstream name(entry->name);
        for (std::string part; std::getline(name, part, '.');)
            parts.push_back(part);
        const std::map<std::string, std::string> *table = nullptr;
        if (parts.size() == 3 && parts[1] == "controller")
            table = &controller;
        else if (parts.size() == 3 && parts[1].rfind("port", 0) == 0)
            table = &port;
        else if (parts.size() == 3 && parts[1] == "hmc")
            table = &cube;
        else if (parts.size() == 4 && parts[1] == "hmc" &&
                 parts[2].rfind("vault", 0) == 0)
            table = &vault;
        if (!table)
            continue;
        const auto it = table->find(parts.back());
        if (it != table->end())
            counts[it->second] += entry->value();
    }
}

void
mergeCounts(std::map<std::string, double> &into,
            const std::map<std::string, double> &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

// ---------------------------------------------------------------------
// Traced single-system steps (the host/experiment.cc sequence)

struct PointOutcome
{
    std::uint64_t statDigest = 0;
    TrafficSummary traffic;
    std::map<std::string, double> counts;
};

/** Run @p module from its current time to @p until inside a span
 *  that counts the events executed. */
void
runPhase(SpanLog &log, const char *name, const char *tag,
         Ac510Module &module, Tick until)
{
    Scope s(&log, name, tag);
    const std::uint64_t before = module.queue().executed();
    module.runUntil(until);
    s.setCount(module.queue().executed() - before);
}

/** Traffic summary computed from the aggregate port counters with
 *  the arithmetic of host/experiment.cc's summarize(). */
TrafficSummary
trafficOf(const GupsPortStats &agg, Tick measure)
{
    const double seconds = ticksToSeconds(measure);
    TrafficSummary t;
    t.rawGBps = toGBps(static_cast<double>(agg.rawBytes) / seconds);
    t.readMrps = static_cast<double>(agg.readsCompleted) / seconds / 1e6;
    t.writeMrps =
        static_cast<double>(agg.writesCompleted) / seconds / 1e6;
    t.readPayloadGBps =
        toGBps(static_cast<double>(agg.readPayloadBytes) / seconds);
    t.writePayloadGBps =
        toGBps(static_cast<double>(agg.writePayloadBytes) / seconds);
    return t;
}

/** The measurement window and read-out shared by cold and forked
 *  points: reset, measure, digest, aggregate, tear down. */
PointOutcome
measurePoint(SpanLog &log, std::unique_ptr<Ac510Module> module,
             StatRegistry &registry, const ExperimentConfig &cfg)
{
    const char *backend = backendName(cfg.device.vault.backend.kind);
    PointOutcome out;
    {
        Scope s(&log, "host.reset_port_stats");
        module->resetPortStats();
    }
    runPhase(log, "sim.measure", backend, *module,
             cfg.warmup + cfg.measure);
    {
        Scope s(&log, "sim.digest");
        out.statDigest = registry.digest();
    }
    GupsPortStats agg;
    {
        Scope s(&log, "host.aggregate");
        agg = module->aggregateStats();
    }
    out.traffic = trafficOf(agg, cfg.measure);
    {
        Scope s(&log, "bench.read_stats");
        addModelCounts(registry, out.counts);
    }
    {
        Scope s(&log, "host.teardown");
        module.reset();
    }
    return out;
}

/** runExperiment(cfg) one call at a time. */
PointOutcome
tracedColdPoint(SpanLog &log, const ExperimentConfig &cfg)
{
    const char *backend = backendName(cfg.device.vault.backend.kind);
    std::unique_ptr<Ac510Module> module;
    {
        Scope s(&log, "host.build", backend);
        module = std::make_unique<Ac510Module>(makeSystemConfig(cfg));
    }
    StatRegistry registry;
    {
        Scope s(&log, "host.register_stats");
        module->registerStats(registry, StatPath("system"));
    }
    {
        Scope s(&log, "host.start");
        module->start();
    }
    runPhase(log, "sim.warmup", backend, *module, cfg.warmup);
    return measurePoint(log, std::move(module), registry, cfg);
}

/** The content digest SweepRunner::runPoint computes per point. */
void
tracedConfigDigest(SpanLog &log, const ExperimentConfig &cfg)
{
    Scope s(&log, "runner.config_digest");
    static_cast<void>(configDigest(cfg));
}

// ---------------------------------------------------------------------
// Workloads

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs from @p seed; called repeatedly. Returns the
     *  set-up's own output fingerprints (may be empty). */
    virtual std::vector<std::uint64_t> setup(std::uint64_t seed) = 0;
    /** Drop what the previous set-up built; called before each set-up,
     *  outside its timing. */
    virtual void discard() {}
    /** One pass through the library's top-level entry points. */
    virtual Iteration run(ItemLatencies &latency) = 0;
    /** The same pass, one call at a time, inside spans. */
    virtual Iteration runTraced(SpanLog &log) = 0;
};

/**
 * Cold paper-figure campaign: SweepRunner::run at jobs=2 without
 * cache or warm start, then F15 stream GUPS points and F9-F12 power
 * solves over every measured point.
 */
class Campaign final : public Workload
{
  public:
    std::vector<std::uint64_t>
    setup(std::uint64_t s) override
    {
        seed = s;
        grid = campaignGrid();
        streams.clear();
        for (const Bytes size : {Bytes(32), Bytes(128)}) {
            for (const unsigned n : {2u, 8u, 16u, 28u}) {
                StreamExperimentConfig cfg;
                cfg.requestSize = size;
                cfg.requestsPerStream = n;
                cfg.repetitions = streamRepetitions;
                cfg.seed = mixSeed(seed, streams.size() + 1);
                streams.push_back(cfg);
            }
        }
        // Prime: the "1 vault" read-only point, through the cold path.
        // One mid-weight point (~0.1 s) keeps a set-up short enough for
        // a run to hold dozens of them.
        RunArtifacts artifacts;
        runExperiment(withDerivedSeed(grid[12], seed), {}, &artifacts);
        return {artifacts.statDigest};
    }

    Iteration
    run(ItemLatencies &latency) override
    {
        Iteration it;
        const std::int64_t start = nowNs();
        SweepOptions opts;
        opts.jobs = benchJobs;
        opts.sweepSeed = seed;
        const std::vector<SweepPointResult> points =
            SweepRunner(opts).run(grid);
        for (const SweepPointResult &p : points) {
            it.outputs.push_back(p.statDigest);
            latency.push_back(static_cast<std::uint64_t>(
                std::llround(p.wallMs * 1e6)));
        }
        for (const StreamExperimentConfig &cfg : streams) {
            const std::int64_t t = nowNs();
            const SampleStats stats = runStreamExperiment(cfg);
            latency.push_back(static_cast<std::uint64_t>(nowNs() - t));
            it.outputs.push_back(sampleStatsDigest(stats));
        }
        const PowerModel power;
        for (const SweepPointResult &p : points) {
            it.outputs.push_back(solveCoolings(
                nullptr, power, p.result.traffic(), p.config.mix));
        }
        it.wallS = secondsSince(start);
        it.items = points.size() + streams.size();
        return it;
    }

    Iteration
    runTraced(SpanLog &log) override
    {
        Iteration it;
        it.traced = true;
        const std::int64_t start = nowNs();
        Scope root(&log, "bench.iteration");
        std::vector<ExperimentConfig> configs = grid;
        {
            Scope s(&log, "runner.derive_seeds");
            for (ExperimentConfig &cfg : configs)
                cfg.seed = deriveSeed(seed, cfg);
        }
        std::vector<PointOutcome> points(configs.size());
        {
            Scope pool(&log, "runner.pool");
            ThreadPool threads(benchJobs);
            threads.parallelFor(configs.size(), [&](std::size_t i) {
                Scope point(&log, "runner.point", "", pool.id());
                tracedConfigDigest(log, configs[i]);
                points[i] = tracedColdPoint(log, configs[i]);
            });
        }
        for (const PointOutcome &p : points) {
            it.outputs.push_back(p.statDigest);
            mergeCounts(it.counts, p.counts);
        }
        for (const StreamExperimentConfig &cfg : streams) {
            Scope s(&log, "host.stream");
            it.outputs.push_back(
                sampleStatsDigest(runStreamExperiment(cfg)));
        }
        const PowerModel power;
        for (std::size_t i = 0; i < points.size(); ++i) {
            it.outputs.push_back(solveCoolings(
                &log, power, points[i].traffic, configs[i].mix));
        }
        it.wallS = secondsSince(start);
        it.items = points.size() + streams.size();
        return it;
    }

  private:
    std::uint64_t seed = 1;
    std::vector<ExperimentConfig> grid;
    std::vector<StreamExperimentConfig> streams;
};

/**
 * Warm-start measure-axis sweep over the three storage engines under
 * write-heavy mixes: every group of points sharing a warm-up is
 * served by Ac510Module::fork of one warmed simulator.
 *
 * Each group has six measure windows. The two workers start a group
 * together, so two of its points wait out the warm-up and the other
 * four only fork; with four windows half the points waited, and
 * req_p50_us fell on the boundary between the two kinds of point,
 * where it spread 13% between runs.
 */
class WarmBackends final : public Workload
{
    const std::vector<Tick> measureWindows = {
        5 * tickUs,  10 * tickUs, 15 * tickUs,
        20 * tickUs, 25 * tickUs, 30 * tickUs};

  public:
    std::vector<std::uint64_t>
    setup(std::uint64_t s) override
    {
        SweepAxes axes;
        axes.patterns = {vaultPattern(paperMapper(), 16),
                         vaultPattern(paperMapper(), 2)};
        axes.mixes = {RequestMix::WriteOnly,
                      RequestMix::ReadModifyWrite};
        axes.backends = {BackendKind::HmcDram, BackendKind::Ddr4,
                         BackendKind::Nvm};
        axes.measures = measureWindows;
        axes.base.warmup = warmBackendsWarmup;
        axes.base.seed = mixSeed(s, 0x77a2);
        grid = axes.expand();
        // Prime: the first warm-start group of each backend (one warm-up
        // and a fork per measurement window; backend and measure are the
        // two innermost axes).
        std::vector<std::uint64_t> outputs;
        for (std::size_t g = 0; g < axes.backends.size(); ++g) {
            const std::size_t first = g * measureWindows.size();
            const WarmStart warm = prepareWarmStart(grid[first]);
            for (std::size_t i = 0; i < measureWindows.size(); ++i) {
                RunArtifacts artifacts;
                runExperimentFrom(warm, grid[first + i], &artifacts);
                outputs.push_back(artifacts.statDigest);
            }
        }
        return outputs;
    }

    Iteration
    run(ItemLatencies &latency) override
    {
        Iteration it;
        const std::int64_t start = nowNs();
        SweepOptions opts;
        opts.jobs = benchJobs;
        opts.warmStart = true;
        opts.deriveSeeds = false;
        const std::vector<SweepPointResult> points =
            SweepRunner(opts).run(grid);
        for (const SweepPointResult &p : points) {
            it.outputs.push_back(p.statDigest);
            latency.push_back(static_cast<std::uint64_t>(
                std::llround(p.wallMs * 1e6)));
        }
        it.wallS = secondsSince(start);
        it.items = points.size();
        return it;
    }

    Iteration
    runTraced(SpanLog &log) override
    {
        Iteration it;
        it.traced = true;
        const std::int64_t start = nowNs();
        Scope root(&log, "bench.iteration");

        // SweepRunner's grouping: equal warmupDigest, two or more
        // members; a lone point runs cold.
        struct Group
        {
            std::once_flag once;
            std::unique_ptr<Ac510Module> warm;
        };
        std::map<std::uint64_t, std::vector<std::size_t>> members;
        for (std::size_t i = 0; i < grid.size(); ++i)
            members[warmupDigest(grid[i])].push_back(i);
        std::vector<std::unique_ptr<Group>> groups;
        std::vector<Group *> groupOf(grid.size(), nullptr);
        for (const auto &entry : members) {
            if (entry.second.size() < 2)
                continue;
            groups.push_back(std::make_unique<Group>());
            for (const std::size_t i : entry.second)
                groupOf[i] = groups.back().get();
        }

        std::vector<PointOutcome> points(grid.size());
        {
            Scope pool(&log, "runner.pool");
            ThreadPool threads(benchJobs);
            threads.parallelFor(grid.size(), [&](std::size_t i) {
                Scope point(&log, "runner.point", "", pool.id());
                const ExperimentConfig &cfg = grid[i];
                tracedConfigDigest(log, cfg);
                Group *group = groupOf[i];
                if (!group) {
                    points[i] = tracedColdPoint(log, cfg);
                    return;
                }
                const char *backend =
                    backendName(cfg.device.vault.backend.kind);
                std::call_once(group->once, [&] {
                    Scope warm(&log, "runner.warm_group", backend);
                    {
                        Scope s(&log, "host.build", backend);
                        group->warm = std::make_unique<Ac510Module>(
                            makeSystemConfig(cfg));
                    }
                    {
                        Scope s(&log, "host.start");
                        group->warm->start();
                    }
                    runPhase(log, "sim.warmup", backend, *group->warm,
                             cfg.warmup);
                });
                std::unique_ptr<Ac510Module> module;
                {
                    Scope s(&log, "sim.fork", backend);
                    module = group->warm->fork();
                }
                StatRegistry registry;
                {
                    Scope s(&log, "host.register_stats");
                    module->registerStats(registry, StatPath("system"));
                }
                points[i] =
                    measurePoint(log, std::move(module), registry, cfg);
            });
        }
        {
            Scope s(&log, "host.teardown");
            groups.clear();
        }
        for (const PointOutcome &p : points) {
            it.outputs.push_back(p.statDigest);
            mergeCounts(it.counts, p.counts);
        }
        it.wallS = secondsSince(start);
        it.items = points.size();
        return it;
    }

  private:
    std::vector<ExperimentConfig> grid;
};

/** Arrival feed over one node's shard, as service/node.cc serves it. */
class ShardFeed final : public ArrivalFeed
{
  public:
    ShardFeed(const std::vector<Tick> &arrivals, ServiceStats &stats)
        : arrivals(arrivals), stats(stats)
    {
    }
    Tick
    peekArrival() const override
    {
        return pos < arrivals.size() ? arrivals[pos] : maxTick;
    }
    void pop() override { ++pos; }
    void
    complete(Tick arrival, Tick completion) override
    {
        stats.record(arrival, completion);
    }

  private:
    const std::vector<Tick> &arrivals;
    ServiceStats &stats;
    std::size_t pos = 0;
};

/** Fingerprints of a fleet run: every node's ServiceStats digest and
 *  the aggregate sojourn p50/p99/p999 in ticks. */
std::vector<std::uint64_t>
fleetOutputs(const std::vector<ServiceStats> &nodes,
             const ServiceStats &aggregate)
{
    std::vector<std::uint64_t> out;
    for (const ServiceStats &node : nodes)
        out.push_back(node.digest());
    for (const double q : {0.5, 0.99, 0.999})
        out.push_back(aggregate.sojourn.quantileTicks(q));
    return out;
}

/**
 * Open-loop fleet: 4 nodes on 2 threads, keyed routing, MMPP arrivals
 * whose burst rate exceeds one node's service rate.
 */
class Fleet final : public Workload
{
  public:
    std::vector<std::uint64_t>
    setup(std::uint64_t s) override
    {
        cfg = FleetConfig{};
        cfg.numNodes = 4;
        cfg.requests = fleetRequests;
        cfg.arrival.kind = ArrivalKind::Mmpp;
        cfg.arrival.ratePerSec = 1e8;
        cfg.arrival.burstRatePerSec = 3e8;
        cfg.router = RouterPolicy::Keyed;
        cfg.jobs = benchJobs;
        cfg.seed = mixSeed(s, 0xf1ee7);
        // Generate the arrival stream runFleet will serve and prime
        // with node 0's shard of it.
        std::vector<std::uint64_t> outputs(cfg.numNodes, 0);
        std::vector<Tick> shard;
        for (const FleetRequest &req : generateFleetRequests(cfg)) {
            ++outputs[req.node];
            if (req.node == 0)
                shard.push_back(req.arrival);
        }
        ServiceNodeConfig node = cfg.node;
        node.seed = fleetNodeSeed(cfg, 0);
        outputs.push_back(runServiceNode(node, shard).stats.digest());
        return outputs;
    }

    Iteration
    run(ItemLatencies &latency) override
    {
        Iteration it;
        const std::int64_t start = nowNs();
        const FleetResult res = runFleet(cfg);
        latency.push_back(static_cast<std::uint64_t>(nowNs() - start));
        it.wallS = secondsSince(start);
        it.outputs = fleetOutputs(res.nodes, res.aggregate);
        it.items = cfg.requests;
        return it;
    }

    Iteration
    runTraced(SpanLog &log) override
    {
        Iteration it;
        it.traced = true;
        std::vector<ServiceStats> nodes(cfg.numNodes);
        std::vector<std::map<std::string, double>> counts(cfg.numNodes);
        const std::int64_t start = nowNs();
        const ServiceStats aggregate = tracedFleet(log, nodes, counts);
        it.wallS = secondsSince(start);
        it.outputs = fleetOutputs(nodes, aggregate);
        for (const auto &c : counts)
            mergeCounts(it.counts, c);
        it.items = cfg.requests;
        return it;
    }

  private:
    /** runFleet one call at a time, inside the iteration's root span;
     *  returns the merged stats. */
    ServiceStats
    tracedFleet(SpanLog &log, std::vector<ServiceStats> &nodes,
                std::vector<std::map<std::string, double>> &counts) const
    {
        static const char *const nodeTags[] = {"0", "1", "2", "3"};
        Scope root(&log, "bench.iteration");
        std::vector<FleetRequest> stream;
        {
            Scope s(&log, "service.generate");
            stream = generateFleetRequests(cfg);
        }
        std::vector<std::vector<Tick>> perNode(cfg.numNodes);
        {
            Scope s(&log, "service.shard");
            for (const FleetRequest &req : stream)
                perNode[req.node].push_back(req.arrival);
        }
        {
            Scope pool(&log, "runner.pool");
            ThreadPool threads(benchJobs);
            threads.parallelFor(cfg.numNodes, [&](std::size_t i) {
                Scope node(&log, "service.node",
                           i < 4 ? nodeTags[i] : "", pool.id());
                counts[i] = tracedNode(log, i, perNode[i], nodes[i]);
            });
        }
        Scope s(&log, "service.merge");
        ServiceStats aggregate;
        for (const ServiceStats &node : nodes)
            aggregate.merge(node);
        return aggregate;
    }

    /** service/node.cc's runServiceNode, one call at a time; returns
     *  the node's model counts. */
    std::map<std::string, double>
    tracedNode(SpanLog &log, std::size_t i, const std::vector<Tick> &shard,
               ServiceStats &stats) const
    {
        ShardFeed feed(shard, stats);
        Ac510Config sys;
        sys.numPorts = 1;
        sys.port.mix = RequestMix::ReadOnly;
        sys.port.requestSize = cfg.node.requestSize;
        sys.port.mode = cfg.node.mode;
        sys.port.mask = cfg.node.pattern.mask;
        sys.port.antiMask = cfg.node.pattern.antiMask;
        sys.port.arrivals = &feed;
        sys.device = cfg.node.device;
        sys.controller = cfg.node.controller;
        sys.seed = fleetNodeSeed(cfg, static_cast<unsigned>(i));
        std::unique_ptr<Ac510Module> module;
        {
            Scope s(&log, "host.build", "hmc");
            module = std::make_unique<Ac510Module>(sys);
        }
        {
            Scope s(&log, "host.start");
            module->start();
        }
        {
            Scope s(&log, "sim.measure", "hmc");
            module->runToCompletion();
            s.setCount(module->queue().executed());
        }
        std::map<std::string, double> counts;
        {
            Scope s(&log, "bench.read_stats");
            StatRegistry registry;
            module->registerStats(registry, StatPath("system"));
            addModelCounts(registry, counts);
        }
        Scope s(&log, "host.teardown");
        module.reset();
        return counts;
    }

    FleetConfig cfg;
};

/**
 * A `serve --store` session with nothing to simulate: set-up publishes
 * a campaign grid into a SharedResultStore; each iteration opens a
 * fresh ResultCache over the store and serves every stored point
 * requestsPerPoint times in a seeded order. A request is a wire-codec
 * round trip, configDigest, ResultCache::lookup and a streaming
 * JsonLinesSink::write; its line must equal, byte for byte, the line
 * the sweep wrote when it populated the store.
 */
class StoreReplay final : public Workload
{
  public:
    explicit StoreReplay(std::string scratch)
        : dir(std::move(scratch) + "/store")
    {
    }

    void
    discard() override
    {
        // Deleting the last set-up's store (6-14 ms of file-system
        // work) is not part of publishing the grid, so it stays out of
        // setup_s.
        store.reset();
        std::filesystem::remove_all(dir);
    }

    std::vector<std::uint64_t>
    setup(std::uint64_t s) override
    {
        store = std::make_unique<SharedResultStore>(
            SharedResultStore::Options{dir, 300});
        ResultCache cache(*store);
        std::ostringstream jsonl;
        JsonLinesSink sink(jsonl);
        // One job: set-up time is a metric, and a lone thread keeps it
        // steadier than two sharing a busy machine.
        SweepOptions opts;
        opts.jobs = 1;
        opts.sweepSeed = s;
        opts.cache = &cache;
        opts.sinks = {&sink};
        const std::vector<SweepPointResult> points =
            SweepRunner(opts).run(storeGrid());

        served.clear();
        lines.clear();
        std::vector<std::uint64_t> outputs;
        std::istringstream in(jsonl.str());
        for (const SweepPointResult &p : points) {
            served.push_back(p.config);
            std::string line;
            std::getline(in, line);
            lines.push_back(line + "\n");
            outputs.push_back(p.statDigest);
        }
        order.clear();
        for (unsigned r = 0; r < requestsPerPoint; ++r)
            for (std::size_t i = 0; i < served.size(); ++i)
                order.push_back(i);
        Xoshiro256StarStar rng(mixSeed(s, 0x5e55));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);
        return outputs;
    }

    Iteration
    run(ItemLatencies &latency) override
    {
        return session(nullptr, &latency);
    }

    Iteration
    runTraced(SpanLog &log) override
    {
        return session(&log, nullptr);
    }

  private:
    Iteration
    session(SpanLog *log, ItemLatencies *latency)
    {
        Iteration it;
        it.traced = log != nullptr;
        const SharedResultStore::Counters before = store->counters();
        const std::int64_t start = nowNs();
        Scope root(log, "bench.iteration");
        ResultCache cache(*store);
        std::ostringstream out;
        JsonLinesSink sink(out);
        sink.setStreaming(true);
        for (const std::size_t index : order) {
            const std::int64_t t0 = nowNs();
            bool ok = false;
            {
                Scope request(log, "runner.request");
                ExperimentConfig cfg;
                {
                    Scope s(log, "dist.wire_roundtrip");
                    ok = decodeExperimentConfig(
                        encodeExperimentConfig(served[index]), cfg);
                }
                std::uint64_t digest = 0;
                {
                    Scope s(log, "runner.config_digest");
                    digest = configDigest(cfg);
                }
                std::optional<CachedResult> hit;
                {
                    // The tier is read off the store's hit counter,
                    // which only the traced pass consults.
                    const std::uint64_t storeHits =
                        log ? store->counters().hits : 0;
                    Scope s(log, "runner.cache_lookup");
                    hit = cache.lookup(digest);
                    if (log)
                        s.setTag(store->counters().hits != storeHits
                                     ? "store"
                                     : "memory");
                }
                if (hit) {
                    Scope s(log, "runner.sink_write");
                    SweepPointResult point;
                    point.index = index;
                    point.config = cfg;
                    point.digest = digest;
                    point.statDigest = hit->statDigest;
                    point.result = hit->result;
                    point.fromCache = true;
                    sink.write(point);
                } else {
                    ok = false;
                }
            }
            if (latency)
                latency->push_back(
                    static_cast<std::uint64_t>(nowNs() - t0));
            ++it.checked;
            if (!ok || out.str() != lines[index])
                ++it.failed;
            out.str("");
        }
        it.wallS = secondsSince(start);
        it.items = order.size();
        if (log) {
            const SharedResultStore::Counters after = store->counters();
            it.counts["dist.store_hits"] =
                static_cast<double>(after.hits - before.hits);
            it.counts["dist.store_corrupt"] =
                static_cast<double>(after.corrupt - before.corrupt);
        }
        return it;
    }

    std::string dir;
    std::unique_ptr<SharedResultStore> store;
    /** Resolved configs (derived seeds included) of the stored grid. */
    std::vector<ExperimentConfig> served;
    /** The JSONL line the populating sweep wrote for each point. */
    std::vector<std::string> lines;
    /** Request sequence: point indices, each requestsPerPoint times. */
    std::vector<std::size_t> order;
};

// ---------------------------------------------------------------------
// Entry point

/** Reset the peak-RSS high-water mark (VmHWM) to the live heap; false
 *  if refused. Freed memory is first handed back to the kernel, so the
 *  mark starts from what is in use rather than from whatever earlier
 *  iterations left cached in the allocator: without the trim, the
 *  median peak of warm-backends drifted 16-21 MB between runs. */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hexList(const std::vector<std::uint64_t> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + hex64(values[i]);
    return out + "]";
}

/** One output line: {"iteration": {...}}. */
std::string
iterationJson(const Iteration &it, const ItemLatencies &latency)
{
    std::string out = "{\"iteration\":{\"traced\":";
    out += it.traced ? "true" : "false";
    out += ",\"wall_s\":" + num(it.wallS);
    out += ",\"peak_rss_mb\":" + num(it.peakRssMb);
    out += ",\"items\":" + std::to_string(it.items);
    out += ",\"item_ns\":[";
    for (std::size_t i = 0; i < latency.size(); ++i)
        out += (i ? "," : "") + std::to_string(latency[i]);
    out += "]";
    out += ",\"checked\":" + std::to_string(it.checked);
    out += ",\"failed\":" + std::to_string(it.failed);
    out += ",\"outputs\":" + hexList(it.outputs);
    out += ",\"counts\":{";
    bool first = true;
    for (const auto &[name, value] : it.counts) {
        out += (first ? "\"" : ",\"") + name + "\":" + num(value);
        first = false;
    }
    return out + "}}}\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hmcbench --workload campaign|warm-backends|"
                 "fleet|store-replay --seed N --seconds S --trace 0|1 "
                 "--scratch DIR [--spans FILE]\n");
    return 2;
}

int
run(int argc, char **argv)
{
    std::string workloadName, scratch, spansPath;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            workloadName = value;
        else if (key == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            trace = std::strcmp(value, "1") == 0;
        else if (key == "--scratch")
            scratch = value;
        else if (key == "--spans")
            spansPath = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || scratch.empty() || !(seconds > 0.0) ||
        (trace && spansPath.empty()))
        return usage();

    std::unique_ptr<Workload> workload;
    if (workloadName == "campaign")
        workload = std::make_unique<Campaign>();
    else if (workloadName == "warm-backends")
        workload = std::make_unique<WarmBackends>();
    else if (workloadName == "fleet")
        workload = std::make_unique<Fleet>();
    else if (workloadName == "store-replay")
        workload = std::make_unique<StoreReplay>(scratch);
    else
        return usage();

    std::vector<double> setupS;
    std::vector<std::uint64_t> setupOutputs;
    bool setupConsistent = true;
    double setupInRunS = 0.0;
    const auto setup = [&] {
        workload->discard();
        const std::int64_t start = nowNs();
        std::vector<std::uint64_t> outputs = workload->setup(seed);
        setupS.push_back(secondsSince(start));
        if (setupS.size() > 1 && outputs != setupOutputs)
            setupConsistent = false;
        setupOutputs = std::move(outputs);
    };
    setup();

    // Each untraced iteration's own peak RSS: the high-water mark is
    // reset before it and read after it.
    bool rssReset = true;
    ItemLatencies latency;
    SpanLog spans;
    unsigned traced = 0;
    const std::int64_t start = nowNs();
    do {
        latency.clear();
        rssReset = resetPeakRss() && rssReset;
        Iteration it = workload->run(latency);
        it.peakRssMb = peakRssMb();
        std::fputs(iterationJson(it, latency).c_str(), stdout);
        if (trace && traced < maxTracedIterations &&
            spans.size() < maxSpans) {
            const Iteration tracedIt = workload->runTraced(spans);
            std::fputs(iterationJson(tracedIt, {}).c_str(), stdout);
            ++traced;
        }
        while (setupInRunS < setupShare * secondsSince(start)) {
            setup();
            setupInRunS += setupS.back();
        }
    } while (secondsSince(start) < seconds);
    while (setupS.size() < minSetups)
        setup();
    const double measuredS = secondsSince(start);
    workload.reset();
    if (trace && !spans.write(spansPath)) {
        std::fprintf(stderr, "hmcbench: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }

    std::string out = "{\"workload\":\"" + workloadName + "\"";
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"jobs\":" + std::to_string(benchJobs);
    out += ",\"measured_s\":" + num(measuredS);
    out += ",\"setup_s\":[";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        out += (i ? "," : "") + num(setupS[i]);
    out += "],\"setup_outputs\":" + hexList(setupOutputs);
    out += ",\"setup_consistent\":";
    out += setupConsistent ? "true" : "false";
    out += ",\"peak_rss_reset\":";
    out += rssReset ? "true" : "false";
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // namespace
} // namespace hmcsim::perfbench

int
main(int argc, char **argv)
{
    return hmcsim::perfbench::run(argc, argv);
}
