/**
 * @file
 * Pluggable vault-storage backends.
 *
 * The paper's central comparison -- HMC's closed-page stacked DRAM
 * against conventional DDR channels -- runs through one vault access
 * path. The MemoryBackend interface is the storage-engine seam behind
 * a vault, so what sits there is a per-config choice: the HMC DRAM
 * bank array (default, byte-identical to the pre-interface model), an
 * open-page DDR4 channel (a DIMM is one such vault), or a PCM/NVM tier
 * with asymmetric read/write timing and endurance accounting.
 *
 * Contract (docs/backends.md): the vault controller charges its own
 * pipeline latency and TSV-bus time; a backend models only the
 * storage array. accept() maps the decoded packet onto its internal
 * geometry, books array time, and reports the BankAccessResult tuple
 * {dataReady, bankFree, rowHit, start}.
 */

#ifndef HMCSIM_MEM_BACKEND_HH
#define HMCSIM_MEM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>

#include "dram/timings.hh"
#include "mem/access_result.hh"
#include "protocol/packet.hh"
#include "sim/check.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Which storage engine sits behind a vault. */
enum class BackendKind : std::uint8_t
{
    HmcDram = 0, ///< Closed-page stacked-DRAM bank array (default).
    Ddr4 = 1,    ///< Open-page DDR4 channel (the baseline organization).
    Nvm = 2,     ///< PCM-like tier: asymmetric timing, write-queue
                 ///< drain, per-bank endurance accounting.
};

/** Stable lowercase name ("hmc", "ddr4", "nvm") for CLI/sinks. */
const char *backendName(BackendKind kind);

/** Parse a backendName() string; false when unrecognized. */
bool parseBackendKind(const std::string &name, BackendKind &out);

/**
 * Backend selection plus per-kind model parameters. Lives inside
 * VaultConfig so it reaches every experiment through
 * ExperimentConfig::device; all fields are in the config's field list
 * (runner/config_fields.hh), so the wire and the canonical config
 * digest ("hmcsim.experiment.v2") both carry them.
 */
struct MemoryBackendConfig
{
    BackendKind kind = BackendKind::HmcDram;

    // ---- Ddr4 ----------------------------------------------------------
    /** Array timings of the DDR4 backend (large rows, open page). */
    DramTimings ddrTimings = ddr4Timings();
    /** Row-buffer policy of the DDR4 backend. Open by default -- the
     *  conventional organization; Closed turns the same channel into
     *  the paper's "what if a DIMM closed pages like HMC" ablation. */
    PagePolicy ddrPolicy = PagePolicy::Open;
    /** DDR4-2400 x64 channel data bus. */
    double ddrBusBytesPerSecond = 19.2e9;
    /** Four-activate window: at most ddrActivatesPerFaw row
     *  activations per ddrTFaw across the rank. */
    Tick ddrTFaw = nsToTicks(30.0);
    unsigned ddrActivatesPerFaw = 4;

    // ---- Nvm -----------------------------------------------------------
    /** Array read latency (PCM reads are several times DRAM's). */
    Tick nvmReadLatency = nsToTicks(120.0);
    /** Array write (SET/RESET drain) occupancy per write. */
    Tick nvmWriteLatency = nsToTicks(400.0);
    /** Buffered-write acknowledge: a write completes toward the vault
     *  as soon as it lands in the per-bank write queue. */
    Tick nvmWriteAck = nsToTicks(8.0);
    /** Per-bank write-queue entries; admission stalls when the oldest
     *  queued write has not drained into the array yet. 0 disables
     *  the capacity stall (infinite queue). */
    unsigned nvmWriteQueueDepth = 8;
};

/**
 * Geometry and policy the hosting vault hands to the backend factory:
 * everything a backend inherits from its vault rather than choosing
 * itself.
 */
struct BackendEnvironment
{
    unsigned numBanks = 16;
    DramTimings timings = hmcGen2Timings();
    PagePolicy policy = PagePolicy::Closed;
    bool refreshEnabled = false;
    double refreshMultiplier = 1.0;
};

class Bank;

/**
 * A vault's storage engine. Implementations are single-threaded like
 * the vault that owns them and must be deterministic: identical
 * accept() sequences produce identical results (the sweep runner's
 * byte-identity contract extends through this interface).
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    virtual BackendKind kind() const = 0;

    /**
     * Accept one decoded request no earlier than @p ready (the vault
     * has already charged its controller latency). The backend books
     * array time and reports the access tuple; the vault books the
     * shared TSV data bus from dataReady.
     */
    virtual BankAccessResult accept(const Packet &pkt, Tick ready) = 0;

    /**
     * Take the state of @p src, an engine of the same concrete type
     * built from the same environment (Ac510Module::fork). Engines
     * hold only values, so each override is its type's defaulted copy
     * assignment.
     */
    virtual void assign(const MemoryBackend &src) = 0;

    /** Banks (or bank-equivalent partitions) the backend exposes. */
    virtual unsigned numBanks() const = 0;

    /** Beat geometry the hosting vault's data bus moves payload in. */
    virtual const DramTimings &timings() const = 0;

    /** Service rate of the vault data bus in front of this backend. */
    virtual double busBytesPerSecond() const = 0;

    // ---- Refresh hooks (DRAM-like backends only) -----------------------
    /** Advance every bank through a refresh cycle (maintenance). */
    virtual void refreshAll(Tick at) { (void)at; }
    /** Reconfigure the refresh engine (thermal feedback). */
    virtual void
    setRefresh(bool enabled, double multiplier)
    {
        (void)enabled;
        (void)multiplier;
    }
    /** Current per-bank refresh interval in ticks (0 if disabled). */
    virtual Tick refreshInterval() const { return 0; }
    /** Refresh cycles performed so far. */
    virtual std::uint64_t refreshes() const { return 0; }

    // ---- Observability hooks -------------------------------------------
    /** Register backend-specific counters under @p path. */
    virtual void
    registerStats(StatRegistry &registry, const StatPath &path) const
    {
        (void)registry;
        (void)path;
    }
    /** Register backend-specific invariants under @p name. */
    virtual void
    registerCheckers(CheckerRegistry &registry,
                     const std::string &name) const
    {
        (void)registry;
        (void)name;
    }
    /** DRAM bank state for introspection; null for backends that do
     *  not use the Bank state machine (e.g. NVM). */
    virtual const Bank *bankAt(unsigned idx) const
    {
        (void)idx;
        return nullptr;
    }

    virtual void reset() = 0;
};

/**
 * A vault's storage engine, held by value: assignment copies the other
 * engine's state into this one through MemoryBackend::assign, so this
 * vault keeps its own engine object and the pointers into it.
 */
class BackendValue
{
  public:
    explicit BackendValue(std::unique_ptr<MemoryBackend> engine)
        : engine(std::move(engine))
    {
    }
    BackendValue(const BackendValue &) = delete;

    BackendValue &
    operator=(const BackendValue &other)
    {
        HMCSIM_DCHECK(engine->kind() == other.engine->kind(),
                      "assigning a storage engine of another kind");
        engine->assign(*other.engine);
        return *this;
    }

    MemoryBackend *get() const { return engine.get(); }
    MemoryBackend *operator->() const { return engine.get(); }
    MemoryBackend &operator*() const { return *engine; }

  private:
    std::unique_ptr<MemoryBackend> engine;
};

/**
 * Why no storage engine can be built behind a vault with
 * @p vault_timings and @p cfg: a zero beat or row size (the engines
 * divide by them), a beat time of 2^32 ps or more (a 32-bit beat count
 * times it must fit a tick), any other timing of 2^40 ps or more (the
 * banks add them to ticks), for the NVM engine a write queue deeper
 * than 1024 (every bank allocates it up front), or, for the DDR4
 * engine, its own beat size or time of 2^32 or more, its own timings
 * past the same 2^40 ps bound, a bus rate that is not validRate() or
 * no activates per tFAW. Names the field by its wire key; null when
 * the engine can be built. makeMemoryBackend() fatal()s on it and
 * validateExperimentConfig() refuses it.
 */
const char *backendConfigError(const DramTimings &vault_timings,
                               const MemoryBackendConfig &cfg);

/** Build the backend selected by @p cfg.kind for a vault's @p env. */
std::unique_ptr<MemoryBackend>
makeMemoryBackend(const BackendEnvironment &env,
                  const MemoryBackendConfig &cfg);

} // namespace hmcsim

#endif // HMCSIM_MEM_BACKEND_HH
