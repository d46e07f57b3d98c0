/**
 * @file
 * hmcsim_cli -- run any paper-style experiment from the command line.
 *
 * Subcommands (`hmcsim_cli <command> --help` prints the same text):
 *
 *     run        one experiment + power/thermal solve (the default:
 *                a bare flag list is treated as `run` for backwards
 *                compatibility, including the legacy --selfcheck flag)
 *     sweep      a parallel multi-point campaign with structured sinks
 *     selfcheck  determinism probe: run the config twice, compare
 *                bit-exact stat-registry digests
 *     trace      one traced experiment: per-stage latency table plus
 *                a Chrome/Perfetto JSON stream of sampled lifecycles
 *
 * Every subcommand spells the shared knobs identically: --seed,
 * --out, --jobs (where jobs make sense), and the experiment flags
 * below. `run` and `sweep` accept --trace-out/--trace-sample to
 * attach the lifecycle tracer (docs/observability.md).
 */

#include <signal.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/store.hh"
#include "dist/worker.hh"
#include "host/experiment.hh"
#include "host/trace_replay.hh"
#include "runner/experiment_keys.hh"
#include "runner/result_cache.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/fleet.hh"
#include "sim/stat_registry.hh"
#include "sim/text.hh"
#include "trace/lifecycle.hh"
#include "trace/trace_sink.hh"

using namespace hmcsim;

namespace
{

void
printHelp(std::FILE *out)
{
    std::fputs(
        "usage: hmcsim_cli [run] [options]        one experiment\n"
        "       hmcsim_cli sweep [options]        parallel campaign\n"
        "       hmcsim_cli selfcheck [options]    determinism probe\n"
        "       hmcsim_cli trace [options]        traced experiment\n"
        "       hmcsim_cli serve [options]        streaming request "
        "service\n"
        "       hmcsim_cli worker [options]       distributed sweep "
        "worker\n"
        "\n"
        "experiment options (all commands):\n"
        "  --mix ro|wo|rw|atomic      request mix          (default ro)\n"
        "  --size N                   request bytes        (default 128)\n"
        "  --vaults N                 vault pattern 1..16  (default 16)\n"
        "  --banks N                  bank pattern 1..16 (in vault 0)\n"
        "  --ports N                  active GUPS ports    (default 9)\n"
        "  --linear                   linear addressing  (default random)\n"
        "  --measure-us N             measurement window\n"
        "  --warmup-us N              warm-up window\n"
        "  --maxblock 16|32|64|128    mode register        (default 128)\n"
        "  --mapping vault|bank|contig  interleave scheme\n"
        "  --ber X                    lane bit error rate  (default 0)\n"
        "  --refresh X                refresh multiplier   (default off)\n"
        "  --backend hmc|ddr4|nvm     vault storage engine (default hmc;\n"
        "                             docs/backends.md)\n"
        "  --seed S                   experiment/campaign seed "
        "(default 1)\n"
        "  values: integers are plain decimal (no sign, no leading zero,\n"
        "  no hex or octal); reals such as 1e-12 must be finite. A bad\n"
        "  value exits 2 with one line naming the key.\n"
        "\n"
        "run options:\n"
        "  --cooling 1..4             Table III config     (default 1)\n"
        "  --csv                      machine-readable one-line output\n"
        "  --out FILE                 write the CSV line to FILE "
        "(\"-\" = stdout; implies --csv)\n"
        "  --stats [prefix]           dump the component statistics\n"
        "  --trace FILE [--window N]  replay a trace file instead\n"
        "  --selfcheck                legacy spelling of `selfcheck`\n"
        "\n"
        "sweep options:\n"
        "  --jobs N                   concurrent jobs      "
        "(default: cores)\n"
        "  --axis K=V1,V2,...         sweep axis, repeatable; K is one\n"
        "                             of vaults, banks, mix, size, mode,\n"
        "                             ports, backend, measure_us\n"
        "                             (default: paper pattern axis, ro,\n"
        "                             128 B, hmc)\n"
        "  --warm-start               share one warm-up per group of\n"
        "                             points differing only in measure\n"
        "                             window (fork after warm-up)\n"
        "  --same-seeds               keep caller seeds instead of\n"
        "                             deriving per-point seeds (lets a\n"
        "                             measure_us axis share warm-ups)\n"
        "  --out FILE                 JSON-lines results   "
        "(\"-\" = stdout)\n"
        "  --csv-out FILE             CSV results\n"
        "  --store DIR                shared cross-process result "
        "store\n"
        "                             (claims divide work between\n"
        "                             processes; docs/runner.md)\n"
        "  --workers unix:P|tcp:H:P   coordinate remote `worker`\n"
        "                             processes instead of running\n"
        "                             locally (output stays byte-\n"
        "                             identical to --jobs 1)\n"
        "  --timing                   include wall-clock metadata\n"
        "                             (nondeterministic; off for diffs)\n"
        "\n"
        "worker options (serves one `sweep --workers` coordinator):\n"
        "  --connect unix:P|tcp:H:P   coordinator address (required)\n"
        "  --jobs N                   local simulation threads\n"
        "  --store DIR                shared result store to consult\n"
        "                             and feed\n"
        "  --batch N                  points per lease  (default: jobs)\n"
        "\n"
        "serve options (docs/service.md has the line protocol):\n"
        "  --in FILE                  request script (default stdin)\n"
        "  --out FILE                 JSONL results  (default stdout)\n"
        "  --jobs N                   default worker count\n"
        "  --store DIR                shared cross-process result store\n"
        "                             consulted before simulating\n"
        "  requests, one per line ('#' comments, blank lines ok):\n"
        "    sweep k=v ...            one sweep point; keys mix, size,\n"
        "                             vaults, banks, ports, mode,\n"
        "                             backend, measure_us, warmup_us,\n"
        "                             seed\n"
        "    traffic k=v ...          one fleet run; keys nodes,\n"
        "                             requests, arrival, rate,\n"
        "                             burst_rate, calm_us, burst_us,\n"
        "                             trace, router, hot_fraction,\n"
        "                             keys, size, vaults, seed, jobs\n"
        "    quit | shutdown          end the session (sinks flushed;\n"
        "                             SIGINT/EOF flush too)\n"
        "\n"
        "tracing options (run, sweep, trace):\n"
        "  --trace-out FILE           Chrome/Perfetto JSON "
        "(\"-\" = stdout; `trace` also accepts --out)\n"
        "  --trace-sample N           emit 1-in-N sampled packets "
        "(default 64; 1 = all)\n"
        "\n"
        "examples:\n"
        "  hmcsim_cli run --mix rw --banks 2 --size 32\n"
        "  hmcsim_cli sweep --jobs 4 --axis size=128,64,32 --out -\n"
        "  hmcsim_cli trace --vaults 16 --out lifecycle.json\n"
        "  hmcsim_cli selfcheck --seed 7\n",
        out);
}

[[noreturn]] void
usage()
{
    printHelp(stderr);
    std::exit(2);
}

const char *
next(int argc, char **argv, int &i)
{
    if (++i >= argc)
        usage();
    return argv[i];
}

/** A malformed value: one line naming the key, exit 2, no help. */
[[noreturn]] void
badInput(const std::string &error)
{
    std::fprintf(stderr, "hmcsim_cli: %s\n", error.c_str());
    std::exit(2);
}

/** The value of the numeric flag at argv[i], read by the key table's
 *  number rules (plain decimal that fits @p T). */
template <typename T>
T
flagNumber(int argc, char **argv, int &i)
{
    const std::string flag = argv[i];
    const char *text = next(argc, argv, i);
    T value{};
    if (const char *why = parseKeyNumber(text, value))
        badInput(flag + " '" + text + "' " + why);
    return value;
}

/**
 * The shared flag-parsing helper: consume one experiment flag at
 * argv[i] through the key table. Returns false (leaving @p i
 * untouched) when the flag belongs to the calling subcommand instead.
 */
bool
parseExperimentFlag(ExperimentKeys &keys, int argc, char **argv, int &i)
{
    const std::string_view arg = argv[i];
    if (arg == "--linear") { // the flag spelling of mode=linear
        keys.cfg.mode = AddressingMode::Linear;
        return true;
    }
    const ExperimentKey *key = findExperimentKey(arg, FlagKey);
    if (!key)
        return false;
    std::string error;
    if (!setExperimentKey(*key, keys, next(argc, argv, i), error))
        badInput(error);
    return true;
}

/** The config of a one-experiment command (run, selfcheck, trace),
 *  where --seed is the experiment seed; exits 2 if it is invalid. */
ExperimentConfig
resolveExperiment(ExperimentKeys keys)
{
    keys.cfg.seed = keys.seed;
    std::string error;
    if (!resolveExperimentKeys(keys, error))
        badInput(error);
    return keys.cfg;
}

/** Tracing flags shared by run, sweep, and trace. */
struct TraceFlags
{
    std::string outPath;
    std::uint64_t samplePeriod = 64;
};

bool
parseTraceFlag(TraceFlags &t, int argc, char **argv, int &i)
{
    const std::string arg = argv[i];
    if (arg == "--trace-out") {
        t.outPath = next(argc, argv, i);
    } else if (arg == "--trace-sample") {
        t.samplePeriod = flagNumber<std::uint64_t>(argc, argv, i);
    } else {
        return false;
    }
    return true;
}

/** Open @p path for writing ("-" = stdout); exits on failure. */
std::ostream *
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return &std::cout;
    file.open(path);
    if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    return &file;
}

void
printStageTable(std::FILE *out, const StageBreakdown &b)
{
    std::fprintf(out,
                 "stage breakdown (%llu lifecycles):\n"
                 "  %-12s %10s %9s %9s %9s %7s\n",
                 static_cast<unsigned long long>(b.endToEndNs.count()),
                 "stage", "count", "avg ns", "min ns", "max ns",
                 "share");
    const double end_to_end = b.endToEndNs.mean();
    for (unsigned i = 0; i < numLifecycleStages; ++i) {
        const SampleStats &s = b.stageNs[i];
        std::fprintf(
            out, "  %-12s %10llu %9.1f %9.1f %9.1f %6.1f%%\n",
            lifecycleStageName(static_cast<LifecycleStage>(i)),
            static_cast<unsigned long long>(s.count()), s.mean(),
            s.min(), s.max(),
            end_to_end > 0.0 ? 100.0 * s.mean() / end_to_end : 0.0);
    }
    std::fprintf(out, "  %-12s %10llu %9.1f %9.1f %9.1f %6.1f%%\n",
                 "end-to-end",
                 static_cast<unsigned long long>(b.endToEndNs.count()),
                 b.endToEndNs.mean(), b.endToEndNs.min(),
                 b.endToEndNs.max(), end_to_end > 0.0 ? 100.0 : 0.0);
}

int
reportSelfCheck(ExperimentConfig cfg)
{
    // Two back-to-back runs of the configured workload must be
    // bit-identical; keep the window short, the point is identity
    // rather than statistics.
    cfg.warmup = 10 * tickUs;
    if (cfg.measure > 100 * tickUs)
        cfg.measure = 100 * tickUs;
    const SelfCheckResult r = hmcsim::runSelfCheck(cfg);
    std::printf("selfcheck    : %zu stats, digests %016llx / "
                "%016llx\n",
                r.numStats,
                static_cast<unsigned long long>(r.digestFirst),
                static_cast<unsigned long long>(r.digestSecond));
    std::printf("timeline     : %llu packets, digests %016llx / %016llx\n",
                static_cast<unsigned long long>(r.numPackets),
                static_cast<unsigned long long>(r.timelineFirst),
                static_cast<unsigned long long>(r.timelineSecond));
    if (r.identical()) {
        std::printf("determinism  : ok (runs bit-identical)\n");
        return 0;
    }
    std::fprintf(stderr,
                 "determinism  : FAILED, first mismatch at '%s'\n",
                 r.firstMismatch.c_str());
    return 1;
}

/** The `selfcheck` subcommand: experiment flags only. */
int
runSelfCheckCommand(int argc, char **argv, int first)
{
    ExperimentKeys keys;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (!parseExperimentFlag(keys, argc, argv, i))
            usage();
    }
    return reportSelfCheck(resolveExperiment(keys));
}

/** The `trace` subcommand: one traced run, stage table + JSON. */
int
runTraceCommand(int argc, char **argv, int first)
{
    ExperimentKeys keys;
    // Tracing wants a short window: 100 us of full-scale GUPS already
    // records thousands of lifecycles.
    keys.cfg.warmup = 10 * tickUs;
    keys.cfg.measure = 100 * tickUs;
    TraceFlags trace;
    trace.outPath = "-";

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (arg == "--out") {
            trace.outPath = next(argc, argv, i);
            continue;
        }
        if (parseTraceFlag(trace, argc, argv, i))
            continue;
        if (!parseExperimentFlag(keys, argc, argv, i))
            usage();
    }
    const ExperimentConfig cfg = resolveExperiment(keys);

    ChromeTraceBuffer buffer;
    RunOptions opts;
    opts.trace.enabled = true;
    opts.trace.samplePeriod = trace.samplePeriod;
    opts.trace.sink = &buffer;
    RunArtifacts artifacts;
    const MeasurementResult m = runExperiment(cfg, opts, &artifacts);

    std::ofstream file;
    std::ostream *out = openOut(trace.outPath, file);
    writeChromeTrace(*out, buffer.events());
    out->flush();

    // The table goes to stderr so `--out -` still pipes clean JSON.
    std::fprintf(stderr, "pattern      : %s (%s, %llu B, %u ports)\n",
                 m.patternName.c_str(), requestMixName(m.mix),
                 static_cast<unsigned long long>(m.requestSize),
                 cfg.numPorts);
    std::fprintf(stderr, "raw bandwidth: %.2f GB/s  (%.1f MRPS)\n",
                 m.rawGBps, m.mrps);
    printStageTable(stderr, m.stages);
    std::fprintf(stderr,
                 "trace        : %s (1-in-%llu sampling, digest "
                 "%016llx)\n",
                 trace.outPath.c_str(),
                 static_cast<unsigned long long>(trace.samplePeriod),
                 static_cast<unsigned long long>(artifacts.statDigest));
    return 0;
}

/**
 * The `sweep` subcommand: expand --axis specs into a campaign, run it
 * across --jobs workers, and emit structured results.
 */
int
runSweepCommand(int argc, char **argv, int first)
{
    SweepOptions opts;
    ExperimentKeys base;
    TraceFlags trace;
    std::vector<std::string> axisSpecs;
    std::string outPath;
    std::string csvPath;
    std::string storeDir;
    std::string workersSpec;
    bool timing = false;
    base.cfg.warmup = 10 * tickUs;
    base.cfg.measure = 100 * tickUs;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (arg == "--jobs") {
            opts.jobs = flagNumber<unsigned>(argc, argv, i);
        } else if (arg == "--out") {
            outPath = next(argc, argv, i);
        } else if (arg == "--csv-out") {
            csvPath = next(argc, argv, i);
        } else if (arg == "--store") {
            storeDir = next(argc, argv, i);
        } else if (arg == "--workers") {
            workersSpec = next(argc, argv, i);
        } else if (arg == "--warm-start") {
            opts.warmStart = true;
        } else if (arg == "--same-seeds") {
            opts.deriveSeeds = false;
        } else if (arg == "--timing") {
            timing = true;
        } else if (parseTraceFlag(trace, argc, argv, i)) {
            // handled
        } else if (arg == "--axis") {
            axisSpecs.push_back(next(argc, argv, i));
        } else if (parseExperimentFlag(base, argc, argv, i)) {
            // Experiment flags season every point's base config.
        } else {
            usage();
        }
    }
    SweepAxes axes;
    if (std::string error; !buildSweepAxes(base, axisSpecs, axes, error))
        badInput(error);
    opts.sweepSeed = base.seed;

    std::unique_ptr<SharedResultStore> store;
    std::unique_ptr<ClaimedResultStorage> claimed;
    std::unique_ptr<ResultCache> cache;
    if (!storeDir.empty()) {
        store = std::make_unique<SharedResultStore>(
            SharedResultStore::Options{storeDir, 300});
        if (workersSpec.empty()) {
            // Local sweep over a shared store: claims make concurrent
            // processes on the same grid divide the points between
            // them instead of simulating everything twice.
            claimed = std::make_unique<ClaimedResultStorage>(*store);
            cache = std::make_unique<ResultCache>(*claimed);
        } else {
            // Coordinator mode: consult the store but never claim --
            // leasing and claiming are the workers' job.
            cache = std::make_unique<ResultCache>(*store);
        }
        opts.cache = cache.get();
    }

    if (!trace.outPath.empty()) {
        opts.trace.enabled = true;
        opts.trace.samplePeriod = trace.samplePeriod;
    }

    std::ofstream outFile;
    std::unique_ptr<JsonLinesSink> jsonSink;
    if (!outPath.empty()) {
        std::ostream *stream = &std::cout;
        if (outPath != "-") {
            outFile.open(outPath);
            if (!outFile) {
                std::fprintf(stderr, "cannot open %s\n",
                             outPath.c_str());
                return 1;
            }
            stream = &outFile;
        }
        jsonSink = std::make_unique<JsonLinesSink>(*stream, timing);
        opts.sinks.push_back(jsonSink.get());
    }

    std::ofstream csvFile;
    std::unique_ptr<CsvSink> csvSink;
    if (!csvPath.empty()) {
        csvFile.open(csvPath);
        if (!csvFile) {
            std::fprintf(stderr, "cannot open %s\n", csvPath.c_str());
            return 1;
        }
        csvSink = std::make_unique<CsvSink>(csvFile, timing);
        opts.sinks.push_back(csvSink.get());
    }

    if (!workersSpec.empty() && !trace.outPath.empty()) {
        std::fprintf(stderr,
                     "--trace-out needs the simulators in-process; "
                     "drop --workers or the trace flags\n");
        return 1;
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<SweepPointResult> results;
    DistSweepStats dist;
    if (!workersSpec.empty()) {
        DistSweepOptions distOpts;
        distOpts.listenSpec = workersSpec;
        distOpts.sweep = opts;
        results = runDistributedSweep(axes, distOpts, &dist);
    } else {
        SweepRunner runner(opts);
        results = runner.run(axes);
    }
    const auto stop = std::chrono::steady_clock::now();

    if (!trace.outPath.empty()) {
        std::ofstream traceFile;
        std::ostream *traceStream = openOut(trace.outPath, traceFile);
        writeChromeTrace(*traceStream, joinTraceEvents(results));
        traceStream->flush();
    }

    std::size_t cached = 0;
    for (const SweepPointResult &point : results)
        cached += point.fromCache ? 1 : 0;
    if (!workersSpec.empty()) {
        std::fprintf(stderr,
                     "sweep: %zu points (%zu simulated, %zu cached), "
                     "%u workers, %.2f s\n",
                     results.size(), dist.simulated, cached,
                     dist.workersSeen,
                     std::chrono::duration<double>(stop - start)
                         .count());
    } else {
        const unsigned jobs =
            opts.jobs ? opts.jobs : ThreadPool::hardwareConcurrency();
        std::fprintf(
            stderr,
            "sweep: %zu points (%zu cached), %u jobs, %.2f s\n",
            results.size(), cached, jobs,
            std::chrono::duration<double>(stop - start).count());
    }
    return 0;
}

/** The `worker` subcommand: serve one `sweep --workers` coordinator. */
int
runWorkerCommand(int argc, char **argv, int first)
{
    WorkerOptions opts;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (arg == "--connect") {
            opts.connectSpec = next(argc, argv, i);
        } else if (arg == "--jobs") {
            opts.jobs = flagNumber<unsigned>(argc, argv, i);
        } else if (arg == "--store") {
            opts.storeDir = next(argc, argv, i);
        } else if (arg == "--batch") {
            opts.batch = flagNumber<unsigned>(argc, argv, i);
        } else if (arg == "--throttle-ms") {
            opts.throttleMs = flagNumber<unsigned>(argc, argv, i);
        } else if (arg == "--die-after") {
            opts.dieAfter = flagNumber<int>(argc, argv, i);
        } else {
            usage();
        }
    }
    if (opts.connectSpec.empty()) {
        std::fprintf(stderr, "worker: --connect is required\n");
        return 1;
    }
    return runWorker(opts);
}

/** The `run` subcommand -- also the legacy flag-style entry point. */
int
runRunCommand(int argc, char **argv, int first)
{
    ExperimentKeys keys;
    TraceFlags trace;
    unsigned cooling = 1;
    bool csv = false;
    bool selfcheck = false;
    bool dump_stats = false;
    std::string out_path;
    std::string stats_prefix;
    std::string replay_file;
    unsigned replay_window = 64;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (arg == "--cooling") {
            cooling = flagNumber<unsigned>(argc, argv, i);
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--out") {
            out_path = next(argc, argv, i);
            csv = true;
        } else if (arg == "--selfcheck") {
            selfcheck = true;
        } else if (arg == "--stats") {
            dump_stats = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                stats_prefix = argv[++i];
        } else if (arg == "--trace") {
            replay_file = next(argc, argv, i);
        } else if (arg == "--window") {
            replay_window = flagNumber<unsigned>(argc, argv, i);
        } else if (parseTraceFlag(trace, argc, argv, i)) {
            // handled
        } else if (!parseExperimentFlag(keys, argc, argv, i)) {
            usage();
        }
    }

    const ExperimentConfig cfg = resolveExperiment(keys);
    if (!validCoolingIndex(cooling))
        badInput("cooling " + std::to_string(cooling) + " must be 1..4");
    if (const char *why = replayWindowError(replay_window))
        badInput("window " + std::to_string(replay_window) + " " + why);
    if (selfcheck)
        return reportSelfCheck(cfg);

    if (!replay_file.empty()) {
        std::ifstream in(replay_file);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         replay_file.c_str());
            return 1;
        }
        const Trace replay = parseTrace(in);
        TraceReplayConfig rc;
        rc.maxOutstanding = replay_window;
        rc.device = cfg.device;
        rc.controller = cfg.controller;
        const TraceReplayResult r = replayTrace(replay, rc);
        std::printf("trace        : %s (%zu records, window %u)\n",
                    replay_file.c_str(), replay.size(), replay_window);
        std::printf("raw bandwidth: %.2f GB/s (payload %.2f)\n",
                    r.rawGBps, r.payloadGBps);
        std::printf("request rate : %.1f MRPS\n", r.mrps);
        std::printf("latency      : avg %.0f ns  min %.0f  max %.0f\n",
                    r.latencyNs.mean(), r.latencyNs.min(),
                    r.latencyNs.max());
        std::printf("drain time   : %.3f ms\n",
                    ticksToUs(r.elapsed) / 1000.0);
        return 0;
    }

    if (dump_stats) {
        // Run the configured workload on a raw module and dump every
        // registered counter.
        Ac510Module module(makeSystemConfig(cfg));
        StatRegistry registry;
        module.registerStats(registry, StatPath("system"));
        module.start();
        module.runUntil(cfg.warmup + cfg.measure);
        for (const StatEntry *entry :
             registry.matching(stats_prefix.empty() ? "system"
                                                    : stats_prefix)) {
            std::printf("%-44s %.6g\n", entry->name.c_str(),
                        entry->value());
        }
        return 0;
    }

    const bool tracing = !trace.outPath.empty();
    ChromeTraceBuffer buffer;
    RunOptions opts;
    if (tracing) {
        opts.trace.enabled = true;
        opts.trace.samplePeriod = trace.samplePeriod;
        opts.trace.sink = &buffer;
    }

    const ThermalExperimentResult r = runThermalExperiment(
        cfg, coolingConfig(cooling), PowerParams{}, ThermalParams{},
        opts);
    const MeasurementResult &m = r.measurement;
    const PowerThermalResult &pt = r.powerThermal;

    if (tracing) {
        std::ofstream traceFile;
        std::ostream *traceStream = openOut(trace.outPath, traceFile);
        writeChromeTrace(*traceStream, buffer.events());
        traceStream->flush();
    }

    if (csv) {
        std::FILE *out = stdout;
        if (!out_path.empty() && out_path != "-") {
            out = std::fopen(out_path.c_str(), "w");
            if (!out) {
                std::fprintf(stderr, "cannot open %s\n",
                             out_path.c_str());
                return 1;
            }
        }
        std::fprintf(out,
                     "pattern,mix,size,ports,mode,cooling,raw_gbps,"
                     "mrps,lat_avg_ns,lat_min_ns,lat_max_ns,temp_c,"
                     "system_w,failure\n");
        std::fprintf(out,
                     "%s,%s,%llu,%u,%s,Cfg%u,%.3f,%.2f,%.0f,%.0f,"
                     "%.0f,%.1f,%.1f,%d\n",
                     m.patternName.c_str(), requestMixName(m.mix),
                     static_cast<unsigned long long>(m.requestSize),
                     cfg.numPorts, addressingModeName(cfg.mode),
                     cooling, m.rawGBps, m.mrps,
                     m.readLatencyNs.mean(), m.readLatencyNs.min(),
                     m.readLatencyNs.max(), pt.temperatureC,
                     pt.systemW, pt.failure ? 1 : 0);
        if (out != stdout)
            std::fclose(out);
        if (tracing)
            printStageTable(stderr, m.stages);
        return 0;
    }

    std::printf("pattern      : %s (%s, %s)\n", m.patternName.c_str(),
                requestMixName(m.mix), addressingModeName(cfg.mode));
    std::printf("request size : %llu B (%u ports)\n",
                static_cast<unsigned long long>(m.requestSize),
                cfg.numPorts);
    std::printf("raw bandwidth: %.2f GB/s  (%.1f MRPS)\n", m.rawGBps,
                m.mrps);
    if (m.readLatencyNs.count() > 0) {
        std::printf("read latency : avg %.0f ns  min %.0f  max %.0f\n",
                    m.readLatencyNs.mean(), m.readLatencyNs.min(),
                    m.readLatencyNs.max());
    }
    if (m.writeLatencyNs.count() > 0) {
        std::printf("write latency: avg %.0f ns\n",
                    m.writeLatencyNs.mean());
    }
    if (tracing)
        printStageTable(stdout, m.stages);
    std::printf("thermal      : %.1f C in %s (%s)\n", pt.temperatureC,
                coolingConfig(cooling).name.c_str(),
                pt.failure ? "THERMAL FAILURE" : "ok");
    std::printf("system power : %.1f W (HMC dynamic %.2f W, leakage "
                "%.2f W)\n",
                pt.systemW, pt.hmcDynamicW, pt.leakageW);
    return 0;
}

/**
 * One `sweep` request: a single campaign point run through the same
 * SweepRunner path as the batch subcommand (same derived seed, same
 * cache key, same JSONL bytes), streamed through @p sink. @p args are
 * the request's key=value words, checked through the key table before
 * anything is built.
 */
bool
serveSweepRequest(std::string_view args, JsonLinesSink &sink,
                  ResultCache *cache, unsigned jobs, std::string &error)
{
    ExperimentKeys keys;
    keys.cfg.warmup = 10 * tickUs;
    keys.cfg.measure = 100 * tickUs;
    if (!setExperimentKeys(keys, args, error) ||
        !resolveExperimentKeys(keys, error))
        return false;

    SweepOptions opts;
    opts.jobs = jobs;
    opts.sweepSeed = keys.seed;
    opts.cache = cache;
    opts.sinks.push_back(&sink);
    SweepRunner runner(opts);
    runner.run(std::vector<ExperimentConfig>{keys.cfg});
    return true;
}

/**
 * One `traffic` request: an open-loop fleet run (service/fleet.hh).
 * Streams one node line per node plus the aggregate line.
 */
bool
serveTrafficRequest(std::string_view args, std::ostream &out,
                    unsigned jobs, std::string &error)
{
    FleetKeys keys;
    keys.cfg.jobs = jobs;
    if (!setFleetKeys(keys, args, error) ||
        !resolveFleetKeys(keys, error))
        return false;
    const FleetConfig &cfg = keys.cfg;

    const FleetResult res = runFleet(cfg);
    for (unsigned n = 0; n < cfg.numNodes; ++n)
        out << serviceNodeJsonl(n, res.nodes[n]) << '\n';
    out << serviceAggregateJsonl(cfg.numNodes, res.aggregate) << '\n';
    out.flush();
    std::fprintf(
        stderr,
        "serve: traffic %u nodes, %llu requests, %.2f MRPS aggregate\n",
        cfg.numNodes, static_cast<unsigned long long>(cfg.requests),
        res.aggregate.throughputMrps());
    return true;
}

/** Set by SIGINT so the serve loop can exit through its flush path. */
volatile std::sig_atomic_t gServeInterrupted = 0;

extern "C" void
serveSigint(int)
{
    gServeInterrupted = 1;
}

/**
 * The `serve` subcommand: a long-running session reading one request
 * per line from --in (default stdin) and streaming JSONL results to
 * --out as each request completes (docs/service.md).
 */
int
runServeCommand(int argc, char **argv, int first)
{
    std::string inPath;
    std::string outPath = "-";
    std::string storeDir;
    unsigned jobs = 0;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (arg == "--in") {
            inPath = next(argc, argv, i);
        } else if (arg == "--out") {
            outPath = next(argc, argv, i);
        } else if (arg == "--store") {
            storeDir = next(argc, argv, i);
        } else if (arg == "--jobs") {
            jobs = flagNumber<unsigned>(argc, argv, i);
        } else {
            usage();
        }
    }

    std::ifstream inFile;
    std::istream *in = &std::cin;
    if (!inPath.empty() && inPath != "-") {
        inFile.open(inPath);
        if (!inFile) {
            std::fprintf(stderr, "cannot open %s\n", inPath.c_str());
            return 1;
        }
        in = &inFile;
    }
    std::ofstream outFile;
    std::ostream *out = openOut(outPath, outFile);

    // The in-memory cache spans the whole session: a repeated sweep
    // request is served, not re-simulated. With --store it tiers onto
    // the shared cross-process store, so points another process
    // already ran are served without simulating.
    std::unique_ptr<SharedResultStore> store;
    std::unique_ptr<ClaimedResultStorage> claimed;
    std::unique_ptr<ResultCache> cache;
    if (!storeDir.empty()) {
        store = std::make_unique<SharedResultStore>(
            SharedResultStore::Options{storeDir, 300});
        claimed = std::make_unique<ClaimedResultStorage>(*store);
        cache = std::make_unique<ResultCache>(*claimed);
    } else {
        cache = std::make_unique<ResultCache>();
    }
    JsonLinesSink sink(*out);
    sink.setStreaming(true);

    // SIGINT must not kill the process mid-line: the handler sets a
    // flag and (no SA_RESTART) the blocking getline fails with EINTR,
    // so the loop exits through the same flush path as EOF/quit.
    gServeInterrupted = 0;
    struct sigaction sa = {};
    struct sigaction prev = {};
    sa.sa_handler = serveSigint;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, &prev);

    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::string line;
    while (!gServeInterrupted && std::getline(*in, line)) {
        std::string_view args = line;
        const std::string_view verb = popWord(args);
        if (verb.empty() || verb.front() == '#')
            continue;
        if (verb == "quit" || verb == "shutdown")
            break;
        // A bad request is counted and reported; the session goes on.
        std::string error = "unknown request";
        bool ok = false;
        if (verb == "sweep")
            ok = serveSweepRequest(args, sink, cache.get(), jobs, error);
        else if (verb == "traffic")
            ok = serveTrafficRequest(args, *out, jobs, error);
        if (!ok)
            std::fprintf(stderr, "serve: %.*s: %s\n",
                         static_cast<int>(verb.size()), verb.data(),
                         error.c_str());
        ++(ok ? served : failed);
    }
    // Every exit path -- quit/shutdown verb, input EOF, SIGINT --
    // lands here: close the JSONL array state and push buffered
    // bytes out before the process goes away. The caches persist at
    // store() time, so results are already durable.
    sink.finish();
    out->flush();
    ::sigaction(SIGINT, &prev, nullptr);
    if (gServeInterrupted)
        std::fprintf(stderr, "serve: interrupted, flushing\n");
    std::fprintf(stderr,
                 "serve: session done, %llu served, %llu failed "
                 "(%llu cache hits)\n",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(cache->hits()));
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "run")
        return runRunCommand(argc, argv, 2);
    if (cmd == "sweep")
        return runSweepCommand(argc, argv, 2);
    if (cmd == "selfcheck")
        return runSelfCheckCommand(argc, argv, 2);
    if (cmd == "trace")
        return runTraceCommand(argc, argv, 2);
    if (cmd == "serve")
        return runServeCommand(argc, argv, 2);
    if (cmd == "worker")
        return runWorkerCommand(argc, argv, 2);
    if (cmd == "--help" || cmd == "-h") {
        printHelp(stdout);
        return 0;
    }
    // Legacy flag-style invocation (and no arguments at all) is `run`.
    return runRunCommand(argc, argv, 1);
}
