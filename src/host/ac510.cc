#include "host/ac510.hh"

#include "sim/logging.hh"
#include "trace/lifecycle.hh"

namespace hmcsim
{

Ac510Module::Ac510Module(const Ac510Config &cfg) : cfg(cfg)
{
    if (const char *why = portCountError(cfg.numPorts))
        fatal("port count %u %s", cfg.numPorts, why);

    _device = std::make_unique<HmcDevice>(cfg.device);
    _controller = std::make_unique<HmcController>(
        cfg.controller, _queue, *_device,
        [this](const Packet &pkt) { ports.at(pkt.port)->onResponse(pkt); });

    if (!cfg.perPort.empty() && cfg.perPort.size() < cfg.numPorts)
        fatal("perPort overrides cover %zu of %u ports",
              cfg.perPort.size(), cfg.numPorts);

    std::size_t in_flight = 0;
    for (unsigned i = 0; i < cfg.numPorts; ++i) {
        GupsPortConfig port_cfg =
            cfg.perPort.empty() ? cfg.port : cfg.perPort[i];
        in_flight += port_cfg.tagPoolDepth + port_cfg.writeCreditDepth;
        // Ports distribute their packets over however many links the
        // controller was calibrated with.
        port_cfg.numLinks = cfg.controller.numLinks;
        port_cfg.tracer = cfg.tracer;
        ports.push_back(std::make_unique<GupsPort>(
            i, port_cfg, cfg.device.structure.capacity, _queue,
            [this](Packet &&pkt) {
                _controller->submitRequest(std::move(pkt));
            },
            cfg.seed));
    }
    _controller->reserveInFlight(in_flight);

    // Debug builds audit every model invariant as the queue drains;
    // release builds skip the sweep unless a caller opts in. The
    // sweep touches every port's tag pool and every vault's banks, so
    // the automatic interval is throttled -- violations still surface
    // within 64 events of the offending one, and targeted debugging
    // can call enableInvariantChecks(1) for event-exact blame.
    if (dchecksEnabled())
        enableInvariantChecks(64);
}

void
Ac510Module::enableInvariantChecks(std::uint64_t every_n)
{
    _checkers.clear();
    _controller->registerCheckers(_checkers, "system.controller");
    _device->registerCheckers(_checkers, "system.hmc");
    for (unsigned i = 0; i < ports.size(); ++i)
        ports[i]->registerCheckers(_checkers,
                                   "system.port" + std::to_string(i));
    _queue.setCheckers(&_checkers, every_n);
}

void
Ac510Module::start()
{
    for (auto &port : ports)
        port->start();
}

void
Ac510Module::stop()
{
    for (auto &port : ports)
        port->stop();
}

bool
Ac510Module::allPortsIdle() const
{
    for (const auto &port : ports) {
        if (!port->idle())
            return false;
    }
    return true;
}

void
Ac510Module::resetPortStats()
{
    for (auto &port : ports)
        port->resetStats();
    if (cfg.tracer)
        cfg.tracer->resetStats();
}

void
Ac510Module::registerStats(StatRegistry &registry,
                           const StatPath &path) const
{
    _controller->registerStats(registry, path / "controller");
    _device->registerStats(registry, path / "hmc");
    for (unsigned i = 0; i < ports.size(); ++i)
        ports[i]->registerStats(registry,
                                path / ("port" + std::to_string(i)));
}

std::unique_ptr<Ac510Module>
Ac510Module::fork() const
{
    // Config-time validation of the fork restrictions.
    // lint:allow(hot-check)
    HMCSIM_CHECK(cfg.tracer == nullptr,
                 "fork does not support lifecycle tracing (the tracer "
                 "is caller-owned state outside the snapshot)");
    for (const auto &port : ports) {
        // lint:allow(hot-check)
        HMCSIM_CHECK(port->config().arrivals == nullptr,
                     "fork does not support open-loop arrival feeds "
                     "(the feed is caller-owned state outside the "
                     "snapshot)");
    }

    // The twin's constructor wires it up: its components register
    // with its queue in the same order as ours, so receiver indices
    // agree. Every piece of state is a value (packets by pool slot,
    // components by receiver index), so the defaulted copies below
    // are the whole fork; each component's wiring stays its own
    // (sim/wiring.hh). Copying a pending event that is not a receiver
    // event aborts and names it.
    auto fork_module = std::make_unique<Ac510Module>(cfg);
    fork_module->_queue = _queue;
    *fork_module->_controller = *_controller;
    *fork_module->_device = *_device;
    for (std::size_t i = 0; i < ports.size(); ++i)
        *fork_module->ports[i] = *ports[i];
    return fork_module;
}

GupsPortStats
Ac510Module::aggregateStats() const
{
    GupsPortStats agg;
    for (const auto &port : ports) {
        const GupsPortStats &s = port->stats();
        agg.readsIssued += s.readsIssued;
        agg.writesIssued += s.writesIssued;
        agg.readsCompleted += s.readsCompleted;
        agg.writesCompleted += s.writesCompleted;
        agg.rawBytes += s.rawBytes;
        agg.readPayloadBytes += s.readPayloadBytes;
        agg.writePayloadBytes += s.writePayloadBytes;
        agg.thermalFailures += s.thermalFailures;
        agg.readLatencyNs.merge(s.readLatencyNs);
        agg.writeLatencyNs.merge(s.writeLatencyNs);
        agg.readLatencyHistNs.merge(s.readLatencyHistNs);
    }
    return agg;
}

} // namespace hmcsim
