/**
 * @file
 * Top-level HMC device model: address decode, quadrant routing, and
 * the 16 vault controllers.
 *
 * Each external link enters the cube at one quadrant; packets for a
 * vault in another quadrant pay an extra crossbar hop (Sec. II-B:
 * "an access to a local vault in a quadrant incurs lower latency than
 * an access to a vault in another quadrant").
 */

#ifndef HMCSIM_HMC_DEVICE_HH
#define HMCSIM_HMC_DEVICE_HH

#include <cstdint>
#include <vector>

#include "hmc/address_mapper.hh"
#include "hmc/config.hh"
#include "hmc/vault_controller.hh"
#include "sim/stat_registry.hh"
#include "protocol/packet.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Configuration of the modeled cube. */
struct HmcDeviceConfig
{
    HmcConfig structure = HmcConfig::gen2_4GB();
    VaultConfig vault;
    MaxBlockSize maxBlock = MaxBlockSize::B128;
    MappingScheme mapping = MappingScheme::VaultFirst;
    /** Link ingress to local-quadrant vault latency. */
    Tick quadrantLocalLatency = nsToTicks(12.0);
    /** Additional latency per hop to a remote quadrant. */
    Tick quadrantHopLatency = nsToTicks(8.0);
    /** Response routing back to the link plus SerDes TX on-cube. */
    Tick responsePathLatency = nsToTicks(45.0);
};

/** Device-level aggregate statistics. */
struct HmcDeviceStats
{
    std::uint64_t requests = 0;
    std::uint64_t localQuadrantHits = 0;
    Bytes readPayloadBytes = 0;
    Bytes writePayloadBytes = 0;
};

/** The cube. */
class HmcDevice // lint:snapshot-state
{
  public:
    explicit HmcDevice(const HmcDeviceConfig &cfg);

    /**
     * Accept a request arriving from a link and compute when its
     * response is ready to serialize back onto that link. Fills the
     * packet's decoded-address and timing fields.
     *
     * @param pkt Request; pkt.link selects the ingress quadrant.
     * @param arrival Time the last request flit arrived at the cube.
     * @return Response-ready time at the link TX.
     */
    Tick handleRequest(Packet &pkt, Tick arrival);

    /**
     * When the cube is in thermal shutdown, responses flag failure in
     * their header/tail (Sec. IV-C) and data is lost.
     */
    void setThermalShutdown(bool value) { thermalShutdown = value; }
    bool inThermalShutdown() const { return thermalShutdown; }

    /**
     * Adjust the refresh engine for an operating temperature: DRAM
     * doubles its refresh rate above 85 C (Sec. I: "higher
     * temperatures trigger mechanisms such as frequent refresh").
     */
    void applyTemperature(double temperature_c);

    /** Threshold above which the refresh rate doubles. */
    static constexpr double hotRefreshThresholdC = 85.0;

    const AddressMapper &mapper() const { return _mapper; }
    const HmcDeviceConfig &config() const { return cfg; }
    const HmcDeviceStats &stats() const { return _stats; }

    /** Register device + per-vault counters under @p path. */
    void registerStats(StatRegistry &registry, const StatPath &path) const;

    /** Register every vault's model invariants under @p name. */
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const;

    VaultController &vault(unsigned idx) { return vaults.at(idx); }
    const VaultController &vault(unsigned idx) const
    {
        return vaults.at(idx);
    }
    unsigned numVaults() const
    {
        return static_cast<unsigned>(vaults.size());
    }

    /** Quadrant a link enters the cube at (link i -> quadrant i). */
    unsigned
    ingressQuadrant(unsigned link) const
    {
        return link % cfg.structure.numQuadrants;
    }

    void reset();

  private:
    HmcDeviceConfig cfg;
    AddressMapper _mapper;
    /** Sized once: registries hold pointers to the vaults, and a
     *  same-size assignment (fork) copies them in place. */
    std::vector<VaultController> vaults;
    HmcDeviceStats _stats;
    bool thermalShutdown = false;
};

} // namespace hmcsim

#endif // HMCSIM_HMC_DEVICE_HH
