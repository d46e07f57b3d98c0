/**
 * @file
 * Experiment runner: builds an AC-510 system, runs warm-up and
 * measurement phases, and reports the quantities the paper plots.
 *
 * This is the software layer standing in for the Pico API + host
 * programs of Sec. III-B: it configures ports (type, size, masks,
 * addressing mode), runs for a fixed interval, then reads access
 * counts and min/aggregate/max latencies, exactly mirroring the
 * full-scale / small-scale / stream GUPS methodology.
 */

#ifndef HMCSIM_HOST_EXPERIMENT_HH
#define HMCSIM_HOST_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "gups/patterns.hh"
#include "host/ac510.hh"
#include "power/power_model.hh"
#include "protocol/packet.hh"
#include "sim/stats.hh"
#include "trace/lifecycle.hh"

namespace hmcsim
{

/**
 * Fields shared by every experiment flavor (bandwidth/latency and
 * stream-GUPS). Factoring them out keeps the two configs in sync;
 * ExperimentConfig's field list (runner/config_fields.hh) walks them
 * for the wire codec and configDigest().
 */
struct CommonExperimentConfig
{
    /** Where traffic may land; default is the whole device. */
    AccessPattern pattern{"16 vaults", 0, 0, 16, 256};
    Bytes requestSize = 128;
    std::uint64_t seed = 1;
    /** Optional overrides of the modeled hardware. */
    HmcDeviceConfig device;
    ControllerCalibration controller;
};

/** One bandwidth/latency experiment's configuration. */
struct ExperimentConfig : CommonExperimentConfig
{
    RequestMix mix = RequestMix::ReadOnly;
    AddressingMode mode = AddressingMode::Random;
    /** Active ports: 9 = full-scale GUPS, 1..8 = small-scale. */
    unsigned numPorts = maxGupsPorts;
    /** Simulated warm-up discarded from the measurement. */
    Tick warmup = 100 * tickUs;
    /** Simulated measurement window. The hardware runs 20 s; the
     *  simulation reaches steady state within microseconds, so a
     *  1 ms window gives tight statistics in reasonable CPU time. */
    Tick measure = 1 * tickMs;
};

/** Measured outcome of one experiment (the paper's plot units). */
struct MeasurementResult
{
    std::string patternName;
    RequestMix mix = RequestMix::ReadOnly;
    Bytes requestSize = 0;
    /** Raw bandwidth: request+response bytes incl. header/tail, GB/s
     *  (the paper's Figs. 6-10, 13, 16-18 y/x axes). */
    double rawGBps = 0.0;
    /** Million requests per second, reads + writes (Fig. 8 lines). */
    double mrps = 0.0;
    double readMrps = 0.0;
    double writeMrps = 0.0;
    double readPayloadGBps = 0.0;
    double writePayloadGBps = 0.0;
    /** Read round-trip latency statistics over the window (ns). */
    SampleStats readLatencyNs;
    SampleStats writeLatencyNs;
    /** Tail latency from the binned distribution (ns). */
    double readLatencyP50Ns = 0.0;
    double readLatencyP99Ns = 0.0;
    double readLatencyP999Ns = 0.0;
    /** Per-stage latency breakdown (trace/lifecycle.hh); populated
     *  only when the run had tracing enabled, else stages.enabled is
     *  false and every accumulator is empty. */
    StageBreakdown stages;

    /** Traffic summary for the power/thermal models. */
    TrafficSummary traffic() const;
};

/**
 * Check @p cfg before any model is built from it: request size, port
 * count, max block, device structure (deviceStructureError), storage
 * engine (backendConfigError), controller links (calibrationError), bit
 * error rate and refresh multiplier in range, and a non-empty
 * measurement window that, with the warm-up, fits in simulated time.
 * Each rule a constructor enforces is the constructor's own
 * predicate. False with a one-line @p error that names the offending
 * key by its serve spelling (size, ports, ...).
 * The access pattern is built already; its vault/bank count is
 * checked where it is built (runner/experiment_keys.hh).
 */
bool validateExperimentConfig(const ExperimentConfig &cfg,
                              std::string &error);

/** Build the Ac510 system description an experiment runs on. */
Ac510Config makeSystemConfig(const ExperimentConfig &cfg);

/** Options applied to one runExperiment/runStreamExperiment call. */
struct RunOptions
{
    /** Lifecycle tracing (off by default: the zero-cost path). */
    TraceConfig trace;
};

/**
 * Secondary outputs of a run, produced when the caller passes a
 * non-null artifacts pointer.
 */
struct RunArtifacts
{
    /**
     * Bit-exact StatRegistry::digest() of the run's full counter
     * state -- the fingerprint the sweep runner uses to prove that a
     * parallel run reproduced the serial one exactly. Computed only
     * for runExperiment (stream experiments build one system per
     * repetition; their digest stays 0).
     */
    std::uint64_t statDigest = 0;
    /** Per-stage breakdown; enabled only when tracing was on. */
    StageBreakdown stages;
};

/**
 * Run a bandwidth/latency experiment.
 *
 * @param opts Per-run options (tracing).
 * @param artifacts When non-null, receives the stat digest and, with
 *        tracing enabled, the per-stage breakdown.
 */
MeasurementResult runExperiment(const ExperimentConfig &cfg,
                                const RunOptions &opts = {},
                                RunArtifacts *artifacts = nullptr);

/**
 * A simulator warmed to cfg.warmup and parked, ready to be forked.
 *
 * prepareWarmStart() pays the warm-up cost once; runExperimentFrom()
 * then serves any config with the same warmupDigest() by forking the
 * parked module (Ac510Module::fork) and running only the measurement
 * window. The module is quiescent between runs and fork() is
 * read-only, so one WarmStart may serve many threads concurrently
 * (the sweep runner's warm-start mode does exactly that).
 */
struct WarmStart
{
    /** The config the module was built and warmed from. */
    ExperimentConfig config;
    /** The warmed simulator, advanced to exactly config.warmup. */
    std::unique_ptr<Ac510Module> module;
};

/**
 * Build a simulator from @p cfg and run it to cfg.warmup (tracing
 * unsupported: fork() rejects it). The returned state is immutable
 * input for runExperimentFrom().
 */
WarmStart prepareWarmStart(const ExperimentConfig &cfg);

/**
 * Run @p cfg's measurement window on a fork of @p warm instead of
 * re-simulating the warm-up. Requires warmupDigest(warm.config) ==
 * warmupDigest(cfg) (checked fatal): under that precondition the fork
 * is in exactly the state a cold run of @p cfg would be in at
 * cfg.warmup, so the result and artifacts->statDigest are
 * bit-identical to runExperiment(cfg) (tests/test_snapshot_fork.cc).
 * Read-only on @p warm; safe to call concurrently from many threads
 * against one WarmStart.
 */
MeasurementResult runExperimentFrom(const WarmStart &warm,
                                    const ExperimentConfig &cfg,
                                    RunArtifacts *artifacts = nullptr);

/**
 * Deprecated compatibility shim (pre-RunOptions API): equivalent to
 * calling the overload above and copying artifacts.statDigest into
 * @p statDigest. Prefer the RunOptions/RunArtifacts overload; this
 * one will be removed after one release.
 */
MeasurementResult runExperiment(const ExperimentConfig &cfg,
                                std::uint64_t *statDigest);

/** Outcome of a determinism self-check (two identical runs). */
struct SelfCheckResult
{
    /** Stat-registry digest of each run. */
    std::uint64_t digestFirst = 0;
    std::uint64_t digestSecond = 0;
    /** Statistics registered (identical structure both runs). */
    std::size_t numStats = 0;
    /** Packet-timeline digest (TimelineDigest, trace/trace_sink.hh)
     *  of each pass: the configured run, then its same-tick
     *  contention variant (rw, 16 B), warm-ups included. */
    std::uint64_t timelineFirst = 0;
    std::uint64_t timelineSecond = 0;
    /** Packets the first pass's timeline covers. */
    std::uint64_t numPackets = 0;
    /** Name of the first statistic whose value differed, if any. */
    std::string firstMismatch;
    bool
    identical() const
    {
        return digestFirst == digestSecond &&
               timelineFirst == timelineSecond;
    }
};

/**
 * Determinism self-check: build the same system twice from @p cfg,
 * run both for warmup+measure, and compare bit-exact stat-registry
 * digests. Catches iteration-order and uninitialized-read
 * nondeterminism that sanitizers and the invariant checkers miss --
 * a simulation whose result depends on allocator layout produces
 * different digests here long before anyone notices a wobbly figure.
 * Each pass also runs @p cfg at rw and 16 B, where same-tick events
 * contend, and compares packet-timeline digests over both runs: they
 * pin the order and ticks at which packets move, which the aggregate
 * counters do not.
 */
SelfCheckResult runSelfCheck(const ExperimentConfig &cfg);

/** A measurement plus its steady-state power/thermal solution. */
struct ThermalExperimentResult
{
    MeasurementResult measurement;
    PowerThermalResult powerThermal;
};

/**
 * Run an experiment under a cooling configuration and solve the
 * coupled power/thermal steady state (the paper's 200 s methodology
 * reaches exactly this fixed point).
 */
ThermalExperimentResult runThermalExperiment(
    const ExperimentConfig &cfg, const CoolingConfig &cooling,
    const PowerParams &power = PowerParams{},
    const ThermalParams &thermal = ThermalParams{},
    const RunOptions &opts = {}, RunArtifacts *artifacts = nullptr);

/** Configuration of a stream-GUPS low-load latency experiment. */
struct StreamExperimentConfig : CommonExperimentConfig
{
    /** Read requests per stream (Fig. 15 x-axis: 2..28). */
    unsigned requestsPerStream = 2;
    /** Independent repetitions aggregated into the statistics. */
    unsigned repetitions = 64;
};

/**
 * Run a stream-GUPS experiment: issue fixed-size groups of reads from
 * one port, wait for all responses, and aggregate per-request
 * latencies (min/avg/max) over the repetitions.
 *
 * With tracing enabled in @p opts, one tracer spans every repetition,
 * so artifacts->stages aggregates all requestsPerStream * repetitions
 * lifecycles (the Fig. 15 low-load decomposition).
 */
SampleStats runStreamExperiment(const StreamExperimentConfig &cfg,
                                const RunOptions &opts = {},
                                RunArtifacts *artifacts = nullptr);

} // namespace hmcsim

#endif // HMCSIM_HOST_EXPERIMENT_HH
