/**
 * @file
 * DDR4-channel storage behind the vault interface.
 *
 * The conventional-DIMM organization the paper contrasts HMC against
 * (Secs. I, II-C, IV-D): open page policy, large rows with
 * row-interleaved mapping (consecutive addresses fill a row before
 * moving to the next bank), and a tFAW activate window that caps
 * row-missing traffic. A DIMM channel is one vault with this engine
 * behind it (analysis/closed_loop.hh, ddr4DimmVault), and every sweep,
 * bench, and fleet-service scenario can select it through the config.
 */

#ifndef HMCSIM_MEM_DDR4_BACKEND_HH
#define HMCSIM_MEM_DDR4_BACKEND_HH

#include <vector>

#include "dram/bank.hh"
#include "link/link.hh"
#include "mem/backend.hh"

namespace hmcsim
{

/** Open-page DDR4 channel as a vault storage engine. */
class Ddr4Backend final : public MemoryBackend // lint:snapshot-state
{
  public:
    Ddr4Backend(const BackendEnvironment &env,
                const MemoryBackendConfig &cfg);

    BackendKind kind() const override { return BackendKind::Ddr4; }

    BankAccessResult accept(const Packet &pkt, Tick ready) override;

    void
    assign(const MemoryBackend &src) override
    {
        *this = static_cast<const Ddr4Backend &>(src);
    }

    unsigned
    numBanks() const override
    {
        return static_cast<unsigned>(banks.size());
    }
    const DramTimings &timings() const override { return _timings; }
    double busBytesPerSecond() const override { return busRate; }

    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const override;
    const Bank *
    bankAt(unsigned idx) const override
    {
        return &banks.at(idx);
    }

    void reset() override;

  private:
    DramTimings _timings;
    PagePolicy policy;
    std::vector<Bank> banks;
    /** Rate limiter standing in for the tFAW rolling window. */
    ThroughputRegulator activates;
    double busRate;
};

} // namespace hmcsim

#endif // HMCSIM_MEM_DDR4_BACKEND_HH
