#include "hmc/vault_controller.hh"

#include <memory>
#include <sstream>

namespace hmcsim
{

namespace
{
BackendEnvironment
environmentFor(const VaultConfig &cfg)
{
    BackendEnvironment env;
    env.numBanks = cfg.numBanks;
    env.timings = cfg.timings;
    env.policy = cfg.policy;
    env.refreshEnabled = cfg.refreshEnabled;
    env.refreshMultiplier = cfg.refreshMultiplier;
    return env;
}
} // namespace

VaultController::VaultController(const VaultConfig &cfg)
    : cfg(cfg),
      storage(makeMemoryBackend(environmentFor(cfg), cfg.backend)),
      busTimings(&storage->timings()),
      dataBus(storage->busBytesPerSecond())
{
    // The factory's kind() is authoritative: the cast is safe exactly
    // when the engine is the (final) HmcDramBackend.
    if (storage->kind() == BackendKind::HmcDram)
        fastHmc.get() = static_cast<HmcDramBackend *>(storage.get());
}

Tick
VaultController::refreshInterval() const
{
    return storage->refreshInterval();
}

void
VaultController::setRefresh(bool enabled, double multiplier)
{
    cfg.refreshEnabled = enabled;
    cfg.refreshMultiplier = multiplier;
    storage->setRefresh(enabled, multiplier);
}

Tick
VaultController::service(const Packet &pkt, Tick arrival)
{
    Tick bank_start = 0;
    return serviceTimed(pkt, arrival, bank_start);
}

Tick
VaultController::service(Packet &pkt, Tick arrival)
{
    Tick bank_start = 0;
    const Tick done = serviceTimed(pkt, arrival, bank_start);
    pkt.tBankStart = bank_start;
    return done;
}

Tick
VaultController::serviceTimed(const Packet &pkt, Tick arrival,
                              Tick &bank_start)
{
    const Tick start = arrival + cfg.controllerLatency;

    // The storage engine (closed-page HMC DRAM by default; see
    // cfg.backend) books array time and reports the access tuple.
    // The default engine is called through its devirtualized pointer
    // so accept() inlines here; the branch predicts perfectly (one
    // engine per vault for its whole lifetime).
    BankAccessResult res = fastHmc.get()
                               ? fastHmc->accept(pkt, start)
                               : storage->accept(pkt, start);
    bank_start = res.start;
    // Atomics modify in place: they occupy the bank like a write and
    // pay the controller's ALU latency on top.
    if (pkt.cmd == Command::Atomic)
        res.dataReady += cfg.atomicLatency;

    // The shared TSV data bus moves the payload in 32 B beats plus a
    // command slot; it is the vault's 10 GB/s internal bottleneck.
    // A request that starts inside a 32 B beat wastes part of the
    // first beat (Sec. II-C: "starting or ending a request on a
    // 16-byte boundary uses the DRAM bus inefficiently").
    const DramTimings &t = *busTimings.get();
    const Bytes beat_span = (pkt.addr % t.beatBytes) + pkt.payload;
    const Bytes bus_bytes =
        (t.beats(beat_span) + cfg.commandBeats) * t.beatBytes;
    const Tick bus_done =
        dataBus.admit(res.dataReady, static_cast<double>(bus_bytes));

    switch (pkt.cmd) {
      case Command::Read:
        ++_stats.reads;
        break;
      case Command::Write:
        ++_stats.writes;
        break;
      case Command::Atomic:
        ++_stats.atomics;
        break;
    }
    if (res.rowHit)
        ++_stats.rowHits;
    _stats.payloadBytes += pkt.payload;

    return bus_done;
}

void
VaultController::refreshAll(Tick at)
{
    storage->refreshAll(at);
}

void
VaultController::registerStats(StatRegistry &registry,
                               const StatPath &path) const
{
    registry.addValue((path / "reads").str(), "read requests serviced",
                      &_stats.reads);
    registry.addValue((path / "writes").str(),
                      "write requests serviced", &_stats.writes);
    registry.addValue((path / "atomics").str(),
                      "atomic requests serviced", &_stats.atomics);
    registry.addValue((path / "row_hits").str(),
                      "open-page row-buffer hits", &_stats.rowHits);
    registry.add((path / "refreshes").str(),
                 "refresh cycles performed", [this] {
        return static_cast<double>(storage->refreshes());
    });
    registry.addValue((path / "payload_bytes").str(),
                      "payload bytes moved", &_stats.payloadBytes);
    registry.add((path / "bus_busy_us").str(),
                 "TSV data-bus busy time",
                 [this] { return ticksToUs(dataBus.busyTime()); });
    storage->registerStats(registry, path);
}

void
VaultController::registerCheckers(CheckerRegistry &registry,
                                  const std::string &name) const
{
    storage->registerCheckers(registry, name);
    registry.addLambda(name + ".stats", [this](Tick) -> std::string {
        const std::uint64_t accesses =
            _stats.reads + _stats.writes + _stats.atomics;
        if (_stats.rowHits > accesses) {
            std::ostringstream out;
            out << _stats.rowHits << " row hits for only " << accesses
                << " serviced requests";
            return out.str();
        }
        return {};
    });
}

double
VaultController::busUtilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(dataBus.busyTime()) /
           static_cast<double>(elapsed);
}

void
VaultController::reset()
{
    storage->reset();
    dataBus.reset();
    _stats = VaultStats{};
}

} // namespace hmcsim
