/**
 * @file
 * The AC-510 accelerator module: a Kintex UltraScale FPGA running
 * GUPS and a Micron HMC controller, wired to a 4 GB HMC 1.1 over two
 * half-width 15 Gbps links (Sec. III-A).
 *
 * This class assembles the full simulated system used by every
 * experiment: event queue, GUPS ports, HMC controller, and the cube.
 *
 * Threading contract (relied on by runner/sweep.hh): one simulator
 * per thread, no cross-thread sharing. An Ac510Module and everything
 * it owns (event queue, ports, controller, device, checkers, any
 * StatRegistry it registered into) must be constructed, run, and
 * destroyed on a single thread. Distinct modules on distinct threads
 * are fully independent: the simulation core keeps no process-global
 * mutable state (the check layer's current tick is thread-local, the
 * logging sink is internally synchronized, and StatRegistry /
 * CheckerRegistry are per-instance). Audited for PR 2; keep it that
 * way -- any new global in src/ must be immutable, thread-local, or
 * internally locked.
 */

#ifndef HMCSIM_HOST_AC510_HH
#define HMCSIM_HOST_AC510_HH

#include <memory>
#include <vector>

#include "gups/gups_port.hh"
#include "hmc/device.hh"
#include "host/calibration.hh"
#include "host/hmc_controller.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"

namespace hmcsim
{

/** System-level configuration. */
struct Ac510Config
{
    /** Active GUPS ports: 9 = full-scale, fewer = small-scale. */
    unsigned numPorts = 9;
    /** Port configuration applied to every active port... */
    GupsPortConfig port;
    /**
     * ...unless per-port overrides are given (the hardware configures
     * each port's type/size/masks independently, Sec. III-B). When
     * non-empty, entry i configures port i; must cover numPorts.
     */
    std::vector<GupsPortConfig> perPort;
    /** Cube configuration. */
    HmcDeviceConfig device;
    /** Controller calibration. */
    ControllerCalibration controller;
    /** Experiment seed. */
    std::uint64_t seed = 1;
    /**
     * Lifecycle tracer attached to every port (trace/lifecycle.hh);
     * null (the default) disables tracing entirely. Caller-owned,
     * like the StatRegistry; must outlive the module and obeys the
     * same one-thread contract.
     */
    PacketTracer *tracer = nullptr;
};

/** Maximum usable GUPS ports (one of ten is reserved for system). */
constexpr unsigned maxGupsPorts = gupsPortCount;

/** Why the module cannot run @p ports active GUPS ports, or nullptr
 *  when it can. */
constexpr const char *
portCountError(unsigned ports)
{
    static_assert(maxGupsPorts == 9, "update the reason below");
    return ports >= 1 && ports <= maxGupsPorts
               ? nullptr
               : "must be 1..9, the AC-510's usable GUPS ports";
}

/** The assembled accelerator module. */
class Ac510Module
{
  public:
    explicit Ac510Module(const Ac510Config &cfg);

    /** Start all ports issuing. */
    void start();
    /** Stop all ports (outstanding requests drain). */
    void stop();

    /** Run the simulation until @p limit. */
    void runUntil(Tick limit) { _queue.runUntil(limit); }
    /** Run until every event (including drains) completes. */
    void runToCompletion() { _queue.runToCompletion(); }

    /** True when every port has no outstanding requests. */
    bool allPortsIdle() const;

    /** Clear all port monitoring counters (end of warm-up). */
    void resetPortStats();

    /** Sum of port statistics. */
    GupsPortStats aggregateStats() const;

    /**
     * Register every component's counters under @p path
     * (controller, cube + vaults, each port). The module must
     * outlive the registry.
     */
    void registerStats(StatRegistry &registry, const StatPath &path) const;

    /**
     * Attach every component's invariant checkers to the event
     * queue's drain points. Called automatically by the constructor
     * when debug checks are compiled in (HMCSIM_DCHECK_ENABLED);
     * callable explicitly in release builds for targeted debugging.
     * @param every_n Run the checkers after every n-th event.
     */
    void enableInvariantChecks(std::uint64_t every_n = 1);

    /** The module's checker registry (empty until enabled). */
    CheckerRegistry &checkers() { return _checkers; }

    /**
     * Fork this simulator: build a fresh module from the same config,
     * then copy the event queue, controller, device and ports into it
     * with their defaulted copy assignment. All of their state is
     * values -- pending events name components by receiver index and
     * packets by pool slot -- and what points into a simulator is
     * Wiring (sim/wiring.hh), which the copy leaves alone. The fork
     * then runs exactly the event sequence this module would have
     * run, producing byte-identical statistics, and holds nothing of
     * this module, so it may outlive it (tests/test_snapshot_fork.cc).
     *
     * Read-only on this module, so multiple threads may fork one
     * quiescent warm module concurrently (the sweep runner's
     * warm-start mode relies on this; see runner/sweep.hh). Tracing
     * and open-loop arrival feeds are rejected, and a pending event
     * that is not a receiver event (a lambda) is fatal.
     */
    std::unique_ptr<Ac510Module> fork() const;

    EventQueue &queue() { return _queue; }
    HmcDevice &device() { return *_device; }
    HmcController &controller() { return *_controller; }
    GupsPort &port(unsigned idx) { return *ports.at(idx); }
    unsigned numPorts() const
    {
        return static_cast<unsigned>(ports.size());
    }
    const Ac510Config &config() const { return cfg; }

  private:
    Ac510Config cfg;
    EventQueue _queue;
    std::unique_ptr<HmcDevice> _device;
    std::unique_ptr<HmcController> _controller;
    std::vector<std::unique_ptr<GupsPort>> ports;
    CheckerRegistry _checkers;
};

} // namespace hmcsim

#endif // HMCSIM_HOST_AC510_HH
