#include "host/experiment.hh"

#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

namespace hmcsim
{

TrafficSummary
MeasurementResult::traffic() const
{
    TrafficSummary t;
    t.rawGBps = rawGBps;
    t.readPayloadGBps = readPayloadGBps;
    t.writePayloadGBps = writePayloadGBps;
    t.readMrps = readMrps;
    t.writeMrps = writeMrps;
    return t;
}

bool
validateExperimentConfig(const ExperimentConfig &cfg, std::string &error)
{
    const double ber = cfg.controller.bitErrorRate;
    const double refresh = cfg.device.vault.refreshMultiplier;
    if (const char *why = requestSizeError(cfg.requestSize))
        error = "size " + std::to_string(cfg.requestSize) + " " + why;
    else if (const char *why = portCountError(cfg.numPorts))
        error = "ports " + std::to_string(cfg.numPorts) + " " + why;
    else if (!validMaxBlock(cfg.device.maxBlock))
        error = "maxblock " +
                std::to_string(static_cast<unsigned>(cfg.device.maxBlock)) +
                " must be 16, 32, 64 or 128";
    else if (const char *why = deviceStructureError(cfg.device.structure))
        error = std::string("structure: ") + why;
    else if (const char *why = backendConfigError(
                 cfg.device.vault.timings, cfg.device.vault.backend))
        error = why;
    else if (const char *why = calibrationError(cfg.controller))
        error = why;
    else if (!(ber >= 0.0 && ber <= 1.0))
        error = "ber must be within [0, 1]";
    else if (!(refresh >= 0.0 && std::isfinite(refresh)))
        error = "refresh must be a finite non-negative multiplier";
    else if (cfg.measure == 0)
        error = "measure_us 0 must be at least 1";
    else if (cfg.warmup > maxTick - cfg.measure)
        error = "warmup_us plus measure_us overflow simulated time";
    else
        return true;
    return false;
}

Ac510Config
makeSystemConfig(const ExperimentConfig &cfg)
{
    Ac510Config sys;
    sys.numPorts = cfg.numPorts;
    sys.port.mix = cfg.mix;
    sys.port.requestSize = cfg.requestSize;
    sys.port.mode = cfg.mode;
    sys.port.mask = cfg.pattern.mask;
    sys.port.antiMask = cfg.pattern.antiMask;
    sys.device = cfg.device;
    sys.controller = cfg.controller;
    sys.seed = cfg.seed;
    return sys;
}

namespace
{

/**
 * Fold the module's aggregate port counters into the paper's plot
 * units. Shared verbatim by the cold (runExperiment) and warm-start
 * (runExperimentFrom) paths, so a forked run can never diverge from a
 * cold run in how the measurement is reported.
 */
MeasurementResult
summarize(const Ac510Module &module, const ExperimentConfig &cfg)
{
    const GupsPortStats agg = module.aggregateStats();
    const double seconds = ticksToSeconds(cfg.measure);

    MeasurementResult res;
    res.patternName = cfg.pattern.name;
    res.mix = cfg.mix;
    res.requestSize = cfg.requestSize;
    res.rawGBps = toGBps(static_cast<double>(agg.rawBytes) / seconds);
    res.readMrps =
        static_cast<double>(agg.readsCompleted) / seconds / 1e6;
    res.writeMrps =
        static_cast<double>(agg.writesCompleted) / seconds / 1e6;
    res.mrps = res.readMrps + res.writeMrps;
    res.readPayloadGBps =
        toGBps(static_cast<double>(agg.readPayloadBytes) / seconds);
    res.writePayloadGBps =
        toGBps(static_cast<double>(agg.writePayloadBytes) / seconds);
    res.readLatencyNs = agg.readLatencyNs;
    res.writeLatencyNs = agg.writeLatencyNs;
    if (agg.readLatencyHistNs.totalSamples() > 0) {
        res.readLatencyP50Ns = agg.readLatencyHistNs.quantile(0.5);
        res.readLatencyP99Ns = agg.readLatencyHistNs.quantile(0.99);
        res.readLatencyP999Ns = agg.readLatencyHistNs.quantile(0.999);
    }
    return res;
}

} // namespace

MeasurementResult
runExperiment(const ExperimentConfig &cfg, const RunOptions &opts,
              RunArtifacts *artifacts)
{
    Ac510Config sys = makeSystemConfig(cfg);
    std::optional<PacketTracer> tracer;
    if (opts.trace.enabled) {
        tracer.emplace(opts.trace);
        sys.tracer = &*tracer;
    }

    Ac510Module module(sys);
    StatRegistry registry;
    if (artifacts) {
        module.registerStats(registry, StatPath("system"));
        // Only an attached tracer contributes stats, so a tracing-off
        // run registers the same set as before tracing existed and its
        // digest is unchanged (tested in tests/test_tracing.cc).
        if (tracer)
            tracer->registerStats(registry, StatPath("system") / "trace");
    }
    module.start();
    module.runUntil(cfg.warmup);
    module.resetPortStats();
    module.runUntil(cfg.warmup + cfg.measure);
    if (artifacts)
        artifacts->statDigest = registry.digest();

    MeasurementResult res = summarize(module, cfg);
    if (tracer) {
        res.stages = tracer->breakdown();
        if (artifacts)
            artifacts->stages = tracer->breakdown();
    }
    return res;
}

WarmStart
prepareWarmStart(const ExperimentConfig &cfg)
{
    WarmStart warm;
    warm.config = cfg;
    warm.module = std::make_unique<Ac510Module>(makeSystemConfig(cfg));
    warm.module->start();
    warm.module->runUntil(cfg.warmup);
    return warm;
}

MeasurementResult
runExperimentFrom(const WarmStart &warm, const ExperimentConfig &cfg,
                  RunArtifacts *artifacts)
{
    // The binding precondition is warmupDigest(warm.config) ==
    // warmupDigest(cfg), enforced by the sweep runner's grouping (the
    // digest serializer lives in the runner layer above this one).
    // Guard the obvious misuses here with the cheap field subset.
    // lint:allow(hot-check)
    HMCSIM_CHECK(warm.config.seed == cfg.seed &&
                     warm.config.warmup == cfg.warmup &&
                     warm.config.mix == cfg.mix &&
                     warm.config.requestSize == cfg.requestSize &&
                     warm.config.mode == cfg.mode &&
                     warm.config.numPorts == cfg.numPorts &&
                     warm.config.pattern.mask == cfg.pattern.mask &&
                     warm.config.pattern.antiMask ==
                         cfg.pattern.antiMask,
                 "runExperimentFrom: config's warm-up phase differs "
                 "from the WarmStart's");

    // Identical to the cold path from cfg.warmup on: the fork holds
    // exactly the state the cold run holds after its own warm-up, the
    // stat registration calls are the same set, and the measurement
    // is summarized by the same helper.
    std::unique_ptr<Ac510Module> module = warm.module->fork();
    StatRegistry registry;
    if (artifacts)
        module->registerStats(registry, StatPath("system"));
    module->resetPortStats();
    module->runUntil(cfg.warmup + cfg.measure);
    if (artifacts)
        artifacts->statDigest = registry.digest();
    return summarize(*module, cfg);
}

MeasurementResult
runExperiment(const ExperimentConfig &cfg, std::uint64_t *statDigest)
{
    RunArtifacts artifacts;
    MeasurementResult res = runExperiment(
        cfg, RunOptions{}, statDigest ? &artifacts : nullptr);
    if (statDigest)
        *statDigest = artifacts.statDigest;
    return res;
}

SelfCheckResult
runSelfCheck(const ExperimentConfig &cfg)
{
    struct Run
    {
        std::uint64_t digest = 0;
        std::vector<std::pair<std::string, double>> values;
        TimelineDigest timeline;
    };

    // Same-tick contention: rw at 16 B is the highest packet rate,
    // with dependent writes and fresh reads racing for each tick, so
    // most ticks carry several events and an event-order change moves
    // some packet's stamps.
    ExperimentConfig contention = cfg;
    contention.mix = RequestMix::ReadModifyWrite;
    contention.requestSize = 16;

    // One run of @p c that feeds every completed packet, warm-up
    // included, to @p run's timeline; with @p stats it also records
    // the system's stats into @p run. The tracer's own stats stay out
    // of the registry, so the stat digest is an untraced run's.
    const auto simulate = [](const ExperimentConfig &c, Run &run,
                             bool stats) {
        TraceConfig trace;
        trace.enabled = true;
        trace.sink = &run.timeline;
        PacketTracer tracer(trace);
        Ac510Config sys = makeSystemConfig(c);
        sys.tracer = &tracer;
        Ac510Module module(sys);
        StatRegistry registry;
        if (stats)
            module.registerStats(registry, StatPath("system"));
        module.start();
        module.runUntil(c.warmup);
        module.resetPortStats();
        module.runUntil(c.warmup + c.measure);
        if (stats) {
            run.digest = registry.digest();
            for (const StatEntry *entry : registry.matching(""))
                run.values.emplace_back(entry->name, entry->value());
        }
    };

    const auto once = [&]() -> Run {
        Run run;
        simulate(cfg, run, true);
        simulate(contention, run, false);
        return run;
    };

    const Run first = once();
    const Run second = once();

    SelfCheckResult res;
    res.digestFirst = first.digest;
    res.digestSecond = second.digest;
    res.numStats = first.values.size();
    res.timelineFirst = first.timeline.value();
    res.timelineSecond = second.timeline.value();
    res.numPackets = first.timeline.packets();
    if (!res.identical()) {
        for (std::size_t i = 0;
             i < first.values.size() && i < second.values.size(); ++i) {
            // Bit-exact value comparison (matches the digest; a NaN
            // with identical bits is *not* a mismatch).
            if (first.values[i].first != second.values[i].first ||
                std::memcmp(&first.values[i].second,
                            &second.values[i].second,
                            sizeof(double)) != 0) {
                res.firstMismatch = first.values[i].first;
                break;
            }
        }
        if (res.firstMismatch.empty())
            res.firstMismatch = res.digestFirst == res.digestSecond
                                    ? "<packet timeline differs>"
                                    : "<registry structure differs>";
    }
    return res;
}

ThermalExperimentResult
runThermalExperiment(const ExperimentConfig &cfg,
                     const CoolingConfig &cooling,
                     const PowerParams &power,
                     const ThermalParams &thermal,
                     const RunOptions &opts, RunArtifacts *artifacts)
{
    ThermalExperimentResult res;
    res.measurement = runExperiment(cfg, opts, artifacts);
    const PowerModel model(power);
    res.powerThermal =
        model.solve(res.measurement.traffic(), cfg.mix, cooling, thermal);
    return res;
}

SampleStats
runStreamExperiment(const StreamExperimentConfig &cfg,
                    const RunOptions &opts, RunArtifacts *artifacts)
{
    // One tracer spans every repetition so the breakdown aggregates
    // the whole experiment, not just the last stream.
    std::optional<PacketTracer> tracer;
    if (opts.trace.enabled)
        tracer.emplace(opts.trace);

    SampleStats latencies;
    for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
        Ac510Config sys;
        sys.numPorts = 1;
        sys.port.mix = RequestMix::ReadOnly;
        sys.port.requestSize = cfg.requestSize;
        sys.port.mode = AddressingMode::Random;
        sys.port.mask = cfg.pattern.mask;
        sys.port.antiMask = cfg.pattern.antiMask;
        sys.port.requestBudget = cfg.requestsPerStream;
        sys.device = cfg.device;
        sys.controller = cfg.controller;
        sys.seed = cfg.seed + rep * 1000003ULL;
        if (tracer)
            sys.tracer = &*tracer;

        Ac510Module module(sys);
        module.start();
        module.runToCompletion();
        latencies.merge(module.aggregateStats().readLatencyNs);
    }
    if (artifacts && tracer)
        artifacts->stages = tracer->breakdown();
    return latencies;
}

} // namespace hmcsim
