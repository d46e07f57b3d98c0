/**
 * @file
 * The default vault storage: a closed-page HMC stacked-DRAM bank
 * array with a staggered per-bank refresh engine.
 *
 * This is the pre-interface VaultController storage model moved
 * behind MemoryBackend verbatim -- same refresh catch-up, same
 * Bank::access arithmetic, same bus-rate expression -- so the default
 * configuration keeps the selfcheck digest and sweep JSONL
 * byte-identical (docs/performance.md rule; the differential test in
 * tests/test_backend.cc pins this).
 */

#ifndef HMCSIM_MEM_HMC_DRAM_BACKEND_HH
#define HMCSIM_MEM_HMC_DRAM_BACKEND_HH

#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "mem/backend.hh"

namespace hmcsim
{

/** Closed-page HMC DRAM bank array (the paper's organization). */
class HmcDramBackend final : public MemoryBackend // lint:snapshot-state
{
  public:
    explicit HmcDramBackend(const BackendEnvironment &env);

    BackendKind kind() const override { return BackendKind::HmcDram; }

    // accept() and its refresh helpers are defined inline below: the
    // vault controller devirtualizes the default backend and calls
    // them directly per packet, so they must sit on the inlining
    // path, not behind a call, for the default path to pay no
    // dispatch cost for the interface.
    BankAccessResult
    accept(const Packet &pkt, Tick ready) override
    {
        // Atomics modify in place: they occupy the bank like a write
        // (the vault charges the ALU latency on top of dataReady).
        const bool is_write = pkt.cmd != Command::Read;
        HMCSIM_DCHECK(pkt.bank < banks.size(),
                      "decoded bank %u out of range",
                      static_cast<unsigned>(pkt.bank));
        refreshDue(pkt.bank, ready);
        return banks[pkt.bank].access(env.timings, env.policy, ready,
                                      pkt.row, pkt.payload, is_write);
    }

    void
    assign(const MemoryBackend &src) override
    {
        *this = static_cast<const HmcDramBackend &>(src);
    }

    unsigned
    numBanks() const override
    {
        return static_cast<unsigned>(banks.size());
    }
    const DramTimings &timings() const override { return env.timings; }
    double busBytesPerSecond() const override;

    void refreshAll(Tick at) override;
    void setRefresh(bool enabled, double multiplier) override;
    Tick
    refreshInterval() const override
    {
        if (!env.refreshEnabled || env.refreshMultiplier <= 0.0)
            return 0;
        return static_cast<Tick>(
            static_cast<double>(env.timings.tRefi) /
            env.refreshMultiplier);
    }
    std::uint64_t refreshes() const override { return numRefreshes; }

    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const override;
    const Bank *
    bankAt(unsigned idx) const override
    {
        return &banks.at(idx);
    }

    void reset() override;

  private:
    /** Catch the bank up on refreshes due by @p now. */
    void
    refreshDue(unsigned bank_idx, Tick now)
    {
        const Tick interval = refreshInterval();
        if (interval == 0)
            return;
        while (nextRefresh[bank_idx] <= now) {
            banks[bank_idx].refresh(env.timings,
                                    nextRefresh[bank_idx]);
            nextRefresh[bank_idx] += interval;
            ++numRefreshes;
        }
    }

    BackendEnvironment env;
    std::vector<Bank> banks;
    /** Next scheduled refresh per bank (staggered at start). */
    std::vector<Tick> nextRefresh;
    std::uint64_t numRefreshes = 0;
};

} // namespace hmcsim

#endif // HMCSIM_MEM_HMC_DRAM_BACKEND_HH
