/**
 * @file
 * Structured result sinks for sweep campaigns.
 *
 * A sink receives one SweepPointResult per sweep point, in canonical
 * axis order, after the whole sweep completed -- never from worker
 * threads and never in completion order. That makes sink output a
 * pure function of the sweep definition: a JSONL file written at
 * --jobs 8 diffs clean against one written at --jobs 1 (the CI smoke
 * job does exactly this).
 *
 * Timing metadata (wall clock, cache provenance) is inherently
 * nondeterministic, so it is opt-in per sink and excluded from the
 * determinism contract.
 */

#ifndef HMCSIM_RUNNER_SINK_HH
#define HMCSIM_RUNNER_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "host/experiment.hh"

namespace hmcsim
{

/** One completed sweep point, as handed to sinks. */
struct SweepPointResult
{
    /** Position in canonical axis order. */
    std::size_t index = 0;
    /** Configuration actually simulated (derived seed included). */
    ExperimentConfig config;
    /** configDigest(config): the cache key / join key. */
    std::uint64_t digest = 0;
    /** StatRegistry::digest() of the producing run. */
    std::uint64_t statDigest = 0;
    MeasurementResult result;
    /** True when served from the result cache instead of simulated. */
    bool fromCache = false;
    /** Host wall-clock cost of this point (0 on a cache hit). */
    double wallMs = 0.0;
    /** Comma-prefixed Chrome trace-event fragments of this point's
     *  sampled lifecycles (empty unless the sweep traced); join in
     *  canonical order and wrap with writeChromeTrace(). */
    std::string traceJson;
};

/**
 * Append @p v as printf("%.17g") prints it: 17 significant digits,
 * which round-trip every double (but are not its shortest form --
 * 0.1 prints as 0.10000000000000001). Built on std::to_chars, which
 * the standard defines to match that printf conversion.
 */
void appendDouble17(std::string &out, double v);

/** Destination for sweep results. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Called once per point, in canonical order. */
    virtual void write(const SweepPointResult &point) = 0;

    /** Called after the last write(). */
    virtual void finish() {}
};

/**
 * JSON-lines sink: one self-describing object per point with the
 * config digest, the axis coordinates, every result field, and
 * (opt-in) timing metadata. Doubles are printed with 17 significant
 * digits so the text round-trips bit-exactly.
 */
class JsonLinesSink : public ResultSink
{
  public:
    explicit JsonLinesSink(std::ostream &out, bool include_timing = false)
        : out(out), includeTiming(include_timing)
    {
    }

    /**
     * Streaming mode: flush after every line instead of only at
     * finish(). The serve subcommand turns this on so a client
     * reading the pipe sees each result as soon as it is written;
     * batch sweeps leave it off (one flush at the end is cheaper and
     * the bytes are identical either way).
     */
    void setStreaming(bool on) { streaming = on; }

    void write(const SweepPointResult &point) override;
    void finish() override;

  private:
    std::ostream &out;
    bool includeTiming;
    bool streaming = false;
    /** Reused per write: each line reaches the stream in one write. */
    std::string line;
};

/** CSV sink: header row, then one flat row per point. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &out, bool include_timing = false)
        : out(out), includeTiming(include_timing)
    {
    }

    void write(const SweepPointResult &point) override;
    void finish() override;

  private:
    std::ostream &out;
    bool includeTiming;
    bool wroteHeader = false;
    /** Reused per write: each row reaches the stream in one write. */
    std::string line;
};

} // namespace hmcsim

#endif // HMCSIM_RUNNER_SINK_HH
