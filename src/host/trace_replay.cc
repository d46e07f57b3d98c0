#include "host/trace_replay.hh"

#include <memory>

#include "hmc/device.hh"
#include "host/hmc_controller.hh"
#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

/** Event-driven trace driver (the role GUPS ports play for synthetic
 *  traffic). */
class TraceDriver
{
  public:
    TraceDriver(const Trace &trace, const TraceReplayConfig &cfg)
        : trace(trace),
          cfg(cfg),
          device(cfg.device),
          controller(cfg.controller, queue, device,
                     [this](const Packet &pkt) { onResponse(pkt); })
    {
    }

    TraceReplayResult
    run()
    {
        tryIssue();
        queue.runToCompletion();

        TraceReplayResult res;
        res.elapsed = queue.now();
        const double seconds = ticksToSeconds(res.elapsed);
        if (seconds > 0.0) {
            res.rawGBps = toGBps(static_cast<double>(rawBytes) / seconds);
            res.payloadGBps =
                toGBps(static_cast<double>(payloadBytes) / seconds);
            res.mrps = static_cast<double>(completed) / seconds / 1e6;
        }
        res.latencyNs = latencies;
        return res;
    }

  private:
    void
    tryIssue()
    {
        if (issuePending)
            return;
        if (nextIndex >= trace.size() || outstanding >= cfg.maxOutstanding)
            return;
        issuePending = true;
        const Tick when =
            nextIssueAllowed > queue.now() ? nextIssueAllowed : queue.now();
        queue.schedule(when, [this] {
            issuePending = false;
            issueOne();
        });
    }

    void
    issueOne()
    {
        if (nextIndex >= trace.size() ||
            outstanding >= cfg.maxOutstanding)
            return;
        const TraceEntry &entry = trace[nextIndex];
        Packet pkt;
        pkt.id = nextIndex;
        pkt.cmd = entry.op;
        pkt.addr = entry.addr;
        pkt.payload = entry.size;
        // Spread records over the nine GUPS ports / two links.
        pkt.port = static_cast<std::uint8_t>(nextIndex % gupsPortCount);
        pkt.link = pkt.port < 5 ? 0 : 1;
        pkt.tIssued = queue.now();
        ++nextIndex;
        ++outstanding;
        nextIssueAllowed = queue.now() + cfg.issueInterval;
        controller.submitRequest(std::move(pkt));
        tryIssue();
    }

    void
    onResponse(const Packet &pkt)
    {
        --outstanding;
        ++completed;
        latencies.sample(ticksToNs(queue.now() - pkt.tIssued));
        rawBytes += transactionBytes(pkt.cmd, pkt.payload);
        payloadBytes += pkt.payload;
        tryIssue();
    }

    const Trace &trace;
    TraceReplayConfig cfg;
    EventQueue queue;
    HmcDevice device;
    HmcController controller;
    std::size_t nextIndex = 0;
    unsigned outstanding = 0;
    std::uint64_t completed = 0;
    Bytes rawBytes = 0;
    Bytes payloadBytes = 0;
    SampleStats latencies;
    bool issuePending = false;
    Tick nextIssueAllowed = 0;
};

} // namespace

TraceReplayResult
replayTrace(const Trace &trace, const TraceReplayConfig &cfg)
{
    if (const char *why = replayWindowError(cfg.maxOutstanding))
        fatal("trace replay window %u %s", cfg.maxOutstanding, why);
    TraceDriver driver(trace, cfg);
    return driver.run();
}

} // namespace hmcsim
