/**
 * @file
 * Vault controller model.
 *
 * Each of the 16 vaults has a private memory controller in the logic
 * layer connected to its DRAM partitions by 32 data TSVs with a 32 B
 * access granularity and roughly 10 GB/s of internal bandwidth
 * (Sec. II, [26]). The controller keeps per-bank state so distinct
 * banks overlap (BLP) while the shared TSV data bus serializes data
 * transfer; that combination produces the paper's two key vault-level
 * effects: one bank sustains only a few GB/s, and a vault saturates
 * near 10 GB/s once ~8 banks are busy (Figs. 6, 7, 18).
 */

#ifndef HMCSIM_HMC_VAULT_CONTROLLER_HH
#define HMCSIM_HMC_VAULT_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "sim/check.hh"
#include "sim/stat_registry.hh"
#include "dram/timings.hh"
#include "link/link.hh"
#include "mem/backend.hh"
#include "mem/hmc_dram_backend.hh"
#include "protocol/packet.hh"
#include "sim/types.hh"
#include "sim/wiring.hh"

namespace hmcsim
{

/** Per-vault configuration knobs. */
struct VaultConfig
{
    unsigned numBanks = 16;
    DramTimings timings = hmcGen2Timings();
    PagePolicy policy = PagePolicy::Closed;
    /** Fixed controller pipeline latency per request (decode, queue
     *  management, TSV crossing). */
    Tick controllerLatency = nsToTicks(16.0);
    /** Extra data-bus beats charged per access (command slot). */
    unsigned commandBeats = 1;
    /** In-controller ALU time for atomic read-modify-write commands
     *  (the PIM-flavored HMC commands; HMC 2.0 widens this set). */
    Tick atomicLatency = nsToTicks(4.0);
    /**
     * Enable the refresh engine. Off by default: the paper's 20 s
     * bandwidth measurements fold the ~2 % refresh derating into the
     * calibrated link/DRAM rates; turn it on to study the refresh-
     * rate sensitivity explicitly (Sec. I: higher temperatures
     * trigger more frequent refresh, costing bandwidth and power).
     */
    bool refreshEnabled = false;
    /** Refresh-rate multiplier: 1 = nominal, 2 = hot (>85 C) rate. */
    double refreshMultiplier = 1.0;
    /**
     * Storage engine behind the vault controller: the HMC DRAM bank
     * array (default, byte-identical to the pre-interface model), an
     * open-page DDR4 channel, or an NVM tier (mem/backend.hh,
     * docs/backends.md).
     */
    MemoryBackendConfig backend;
};

/** Aggregate statistics of one vault. */
struct VaultStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t refreshes = 0;
    Bytes payloadBytes = 0;
};

/**
 * Analytic vault controller: given a request's arrival time, computes
 * when its response is ready, booking the bank and the TSV data bus.
 */
class VaultController // lint:snapshot-state
{
  public:
    explicit VaultController(const VaultConfig &cfg);

    /** A vault built from @p other's config, holding its state. */
    VaultController(const VaultController &other)
        : VaultController(other.cfg)
    {
        *this = other;
    }

    /** Take @p other's state (Ac510Module::fork): @p other is built
     *  from the same config; this vault's engine object and the
     *  pointers into it stay. */
    VaultController &operator=(const VaultController &other) = default;

    /**
     * Service one request.
     * @param pkt Decoded request (bank/row fields must be filled in).
     * @param arrival Time the request enters the vault controller.
     * @return Time the response packet is ready to leave the vault.
     */
    Tick service(const Packet &pkt, Tick arrival);

    /** As above, but also stamps pkt.tBankStart with the time the
     *  bank began the access (lifecycle tracing, trace/lifecycle.hh).
     *  Non-const lvalue packets pick this overload automatically. */
    Tick service(Packet &pkt, Tick arrival);

    /** Advance all banks through a refresh cycle (maintenance hook). */
    void refreshAll(Tick at);

    /**
     * Reconfigure the refresh engine, e.g. when the thermal model
     * reports a temperature requiring a faster refresh rate.
     */
    void setRefresh(bool enabled, double multiplier);

    /** Current per-bank refresh interval in ticks (0 if disabled). */
    Tick refreshInterval() const;

    const VaultStats &
    stats() const
    {
        // The refresh count lives in the storage engine; fold it in
        // on read so service() stays free of per-packet virtual
        // bookkeeping calls (bench_simulator_perf's dispatch guard).
        _stats.refreshes = storage->refreshes();
        return _stats;
    }

    /**
     * Register this vault's counters under @p path. The vault must
     * outlive the registry.
     */
    void registerStats(StatRegistry &registry, const StatPath &path) const;

    /**
     * Register this vault's model invariants (bank state-machine
     * legality, counter sanity) under @p name. The vault must outlive
     * the registry.
     */
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const;

    /** The storage engine behind this vault. */
    const MemoryBackend &backend() const { return *storage; }

    /** Utilization of the TSV data bus over @p elapsed ticks. */
    double busUtilization(Tick elapsed) const;

    void reset();

  private:
    /** Shared service body; reports when the bank began the access. */
    Tick serviceTimed(const Packet &pkt, Tick arrival,
                      Tick &bank_start);

    VaultConfig cfg;
    /** Storage engine selected by cfg.backend (mem/backend.hh). */
    BackendValue storage;
    /** Devirtualized view of `storage` when it is the default HMC
     *  DRAM array: the per-packet accept() then inlines into
     *  serviceTimed instead of going through the vtable, so the
     *  default path pays no dispatch cost for the interface (judged
     *  end to end by perfbench's campaign, docs/performance.md).
     *  Null for every other backend kind. */
    Wiring<HmcDramBackend *> fastHmc;
    /** storage->timings(), hoisted at construction: every backend
     *  returns a reference to a member that never moves, and the
     *  service hot path reads it per packet. */
    Wiring<const DramTimings *> busTimings;
    ThroughputRegulator dataBus;
    mutable VaultStats _stats;
};

} // namespace hmcsim

#endif // HMCSIM_HMC_VAULT_CONTROLLER_HH
