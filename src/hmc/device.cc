#include "hmc/device.hh"

#include "protocol/fields.hh"
#include "sim/logging.hh"

namespace hmcsim
{

HmcDevice::HmcDevice(const HmcDeviceConfig &cfg)
    : cfg([&] {
          HmcDeviceConfig c = cfg;
          c.vault.numBanks = cfg.structure.banksPerVault();
          return c;
      }()),
      _mapper(cfg.structure, cfg.maxBlock, cfg.vault.timings.rowBytes,
              cfg.mapping)
{
    vaults.reserve(cfg.structure.numVaults);
    for (unsigned i = 0; i < cfg.structure.numVaults; ++i)
        vaults.emplace_back(this->cfg.vault);
}

Tick
HmcDevice::handleRequest(Packet &pkt, Tick arrival)
{
    pkt.tVaultArrive = arrival;

    // Link-layer verification (Fig. 14's RX mirror inside the cube):
    // the CRC must match and the header must decode back to the
    // packet the controller stamped. A mismatch here is a simulator
    // bug, not a modeled lane error -- lane errors are absorbed by
    // the retry machinery before reaching this point.
    if (pkt.headerBits != 0) {
        if (packetCrc(pkt, pkt.headerBits) != pkt.tailCrc)
            panic("packet %llu failed CRC at the cube",
                  static_cast<unsigned long long>(pkt.id));
        const RequestHeader header = decodeRequestHeader(pkt.headerBits);
        if (header.adrs != (pkt.addr & ((Addr(1) << 34) - 1)) ||
            commandClass(header.cmd) != pkt.cmd)
            panic("packet %llu header mismatch at the cube",
                  static_cast<unsigned long long>(pkt.id));
    }

    const DecodedAddress d = _mapper.decode(pkt.addr);
    pkt.quadrant = d.quadrant;
    pkt.vault = d.vault;
    pkt.bank = d.bank;
    pkt.row = d.row;

    ++_stats.requests;
    if (pkt.cmd == Command::Read || pkt.cmd == Command::Atomic)
        _stats.readPayloadBytes += pkt.payload;
    if (pkt.cmd == Command::Write || pkt.cmd == Command::Atomic)
        _stats.writePayloadBytes += pkt.payload;

    if (thermalShutdown) {
        // The cube refuses the access; the response header/tail tells
        // the host a thermal failure occurred (Sec. IV-C).
        pkt.thermalFailure = true;
        pkt.tDramDone = arrival + cfg.responsePathLatency;
        return pkt.tDramDone;
    }

    // Quadrant routing: local vaults answer faster than remote ones.
    const unsigned ingress = ingressQuadrant(pkt.link);
    Tick routed = arrival + cfg.quadrantLocalLatency;
    if (ingress == d.quadrant) {
        ++_stats.localQuadrantHits;
    } else {
        routed += cfg.quadrantHopLatency;
    }

    const Tick vault_done = vaults[d.vault].service(pkt, routed);
    pkt.tDramDone = vault_done;

    // Response crosses the crossbar back to the ingress quadrant.
    Tick response_ready = vault_done + cfg.responsePathLatency;
    if (ingress != d.quadrant)
        response_ready += cfg.quadrantHopLatency;
    return response_ready;
}

void
HmcDevice::registerStats(StatRegistry &registry,
                         const StatPath &path) const
{
    registry.addValue((path / "requests").str(),
                      "requests accepted by the cube",
                      &_stats.requests);
    registry.addValue((path / "local_quadrant_hits").str(),
                      "requests served by the ingress quadrant",
                      &_stats.localQuadrantHits);
    registry.addValue((path / "read_payload_bytes").str(),
                      "read payload bytes", &_stats.readPayloadBytes);
    registry.addValue((path / "write_payload_bytes").str(),
                      "write payload bytes", &_stats.writePayloadBytes);
    for (unsigned i = 0; i < numVaults(); ++i)
        vaults[i].registerStats(registry,
                                 path / ("vault" + std::to_string(i)));
}

void
HmcDevice::registerCheckers(CheckerRegistry &registry,
                            const std::string &name) const
{
    for (unsigned i = 0; i < numVaults(); ++i)
        vaults[i].registerCheckers(registry,
                                    name + ".vault" + std::to_string(i));
}

void
HmcDevice::applyTemperature(double temperature_c)
{
    const double multiplier =
        temperature_c > hotRefreshThresholdC ? 2.0 : 1.0;
    for (auto &vault : vaults)
        vault.setRefresh(true, multiplier);
}

void
HmcDevice::reset()
{
    for (auto &vault : vaults)
        vault.reset();
    _stats = HmcDeviceStats{};
    thermalShutdown = false;
}

} // namespace hmcsim
