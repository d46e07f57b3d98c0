/**
 * @file
 * Trace replay against the simulated AC-510 + HMC platform.
 *
 * Issues trace records in order through the HMC controller, keeping a
 * configurable number in flight. maxOutstanding = 1 honors strict
 * dependence (pointer chases); larger windows model host-side request
 * buffering, up to the platform's 9 x 64 tag limit.
 */

#ifndef HMCSIM_HOST_TRACE_REPLAY_HH
#define HMCSIM_HOST_TRACE_REPLAY_HH

#include "gups/trace.hh"
#include "host/ac510.hh"
#include "sim/stats.hh"

namespace hmcsim
{

/** Replay configuration. */
struct TraceReplayConfig
{
    /** Maximum requests in flight (1 = dependent chain). */
    unsigned maxOutstanding = 64;
    /** Minimum spacing between issues (one FPGA cycle). */
    Tick issueInterval = 5333;
    /** Platform overrides. */
    HmcDeviceConfig device;
    ControllerCalibration controller;
};

/** nullptr if @p max_outstanding can drive a replay (at least one
 *  request in flight); else why not. */
constexpr const char *
replayWindowError(unsigned max_outstanding)
{
    return max_outstanding == 0 ? "must be at least 1" : nullptr;
}

/** Result of replaying a trace. */
struct TraceReplayResult
{
    double rawGBps = 0.0;
    double payloadGBps = 0.0;
    double mrps = 0.0;
    /** Per-request round-trip latencies (ns). */
    SampleStats latencyNs;
    /** Simulated time to drain the whole trace. */
    Tick elapsed = 0;
};

/** Replay @p trace and measure it. */
TraceReplayResult replayTrace(const Trace &trace,
                              const TraceReplayConfig &cfg =
                                  TraceReplayConfig{});

} // namespace hmcsim

#endif // HMCSIM_HOST_TRACE_REPLAY_HH
