/**
 * @file
 * PCM/NVM storage tier behind the vault interface.
 *
 * Models the three properties that distinguish a phase-change (or
 * similar resistive) tier from DRAM:
 *
 *  - Asymmetric timing: array reads take nvmReadLatency; array writes
 *    occupy the bank for nvmWriteLatency, several times longer.
 *  - Write-queue drain: each bank fronts its array with a small write
 *    queue. A write acknowledges toward the vault after nvmWriteAck
 *    (once buffered) and drains into the array in the background;
 *    admission stalls only when the queue is full, i.e. the oldest of
 *    the last nvmWriteQueueDepth writes has not drained yet. Reads
 *    are serviced from the array and wait behind the drain.
 *  - Endurance accounting: per-bank write counters (NVM cells wear
 *    out) registered as stats, with an invariant checker proving the
 *    per-bank counts always sum to the accepted write total.
 *
 * No refresh: non-volatile cells keep their state unpowered.
 */

#ifndef HMCSIM_MEM_NVM_BACKEND_HH
#define HMCSIM_MEM_NVM_BACKEND_HH

#include <cstdint>
#include <vector>

#include "mem/backend.hh"

namespace hmcsim
{

/** PCM-like tier: asymmetric timing, write drain, endurance. */
class NvmBackend final : public MemoryBackend // lint:snapshot-state
{
  public:
    NvmBackend(const BackendEnvironment &env,
               const MemoryBackendConfig &cfg);

    BackendKind kind() const override { return BackendKind::Nvm; }

    BankAccessResult accept(const Packet &pkt, Tick ready) override;

    void
    assign(const MemoryBackend &src) override
    {
        *this = static_cast<const NvmBackend &>(src);
    }

    unsigned
    numBanks() const override
    {
        return static_cast<unsigned>(banks.size());
    }
    /** The vault data bus in front of the tier keeps its geometry. */
    const DramTimings &timings() const override { return busTimings; }
    double busBytesPerSecond() const override;

    void registerStats(StatRegistry &registry,
                       const StatPath &path) const override;
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const override;

    void reset() override;

    /** Endurance: writes absorbed by bank @p idx so far. */
    std::uint64_t
    bankWrites(unsigned idx) const
    {
        return banks.at(idx).writes;
    }

    /** Writes whose background drain has been retired (on slot
     *  reuse in accept()). Internal bookkeeping, deliberately not a
     *  registered stat, so the stat digest never depends on it. */
    std::uint64_t drainedWrites() const { return totalDrained; }

    /** Writes admitted but not yet retired from the drain rings. */
    std::uint64_t
    queuedWrites() const
    {
        std::uint64_t queued = 0;
        for (const BankState &bank : banks)
            queued += bank.queued;
        return queued;
    }

  private:
    struct BankState // lint:snapshot-state
    {
        /** When the array finishes its current read or write drain. */
        Tick arrayFree = 0;
        /** Ring cursor into this bank's drain-done slots. */
        std::size_t head = 0;
        /** Ring entries admitted and not yet retired (the newest
         *  `queued` slots before head). */
        unsigned queued = 0;
        /** Endurance counter: writes absorbed by this bank. */
        std::uint64_t writes = 0;
        /** Writes whose drain has been retired for this bank. */
        std::uint64_t drained = 0;
    };

    Tick &drainSlot(std::size_t bank_idx, std::size_t slot);

    DramTimings busTimings;
    Tick readLatency;
    Tick writeLatency;
    Tick writeAck;
    unsigned queueDepth;
    std::vector<BankState> banks;
    /** numBanks x queueDepth ring of write drain-completion ticks. */
    std::vector<Tick> drainDone;
    std::uint64_t totalReads = 0;
    std::uint64_t totalWrites = 0;
    std::uint64_t totalDrained = 0;
};

} // namespace hmcsim

#endif // HMCSIM_MEM_NVM_BACKEND_HH
