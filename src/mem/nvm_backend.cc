// lint:file(hot-path) -- backend accept() runs per packet on the model path: no std::function, HMCSIM_DCHECK-only invariants (enforced by hmcsim-lint's backend-hot-path rule).
#include "mem/nvm_backend.hh"

#include <sstream>
#include <string>

#include "sim/logging.hh"

namespace hmcsim
{

NvmBackend::NvmBackend(const BackendEnvironment &env,
                       const MemoryBackendConfig &cfg)
    : busTimings(env.timings),
      readLatency(cfg.nvmReadLatency),
      writeLatency(cfg.nvmWriteLatency),
      writeAck(cfg.nvmWriteAck),
      queueDepth(cfg.nvmWriteQueueDepth),
      banks(env.numBanks),
      drainDone(static_cast<std::size_t>(env.numBanks) *
                    (queueDepth ? queueDepth : 1),
                0)
{
    if (env.numBanks == 0)
        fatal("NVM backend needs at least one bank");
}

Tick &
NvmBackend::drainSlot(std::size_t bank_idx, std::size_t slot)
{
    return drainDone[bank_idx * queueDepth + slot];
}

double
NvmBackend::busBytesPerSecond() const
{
    return static_cast<double>(busTimings.beatBytes) * 1e12 /
           static_cast<double>(busTimings.tBeat);
}

BankAccessResult
NvmBackend::accept(const Packet &pkt, Tick ready)
{
    BankState &bank = banks.at(pkt.bank);
    // Atomics read-modify-write the cell: they wear it like a write.
    const bool is_write = pkt.cmd != Command::Read;
    BankAccessResult res;
    res.rowHit = false;

    if (is_write) {
        // Admission: the queue slot being reused belonged to the
        // write queueDepth entries ago; if it has not drained yet the
        // queue is full and the request stalls at the bank.
        Tick admit = ready;
        if (queueDepth > 0) {
            const Tick oldest = drainSlot(pkt.bank, bank.head);
            if (oldest > admit)
                admit = oldest;
        }
        // Background drain: writes enter the array one at a time, in
        // order, each occupying it for the long write latency.
        const Tick drain_start =
            admit > bank.arrayFree ? admit : bank.arrayFree;
        const Tick drain_done = drain_start + writeLatency;
        bank.arrayFree = drain_done;
        if (queueDepth > 0) {
            // Slot reuse retires the ring's oldest entry: it has
            // provably drained by `admit` (admission waited for it
            // above). Retirement is bookkeeping only -- the timing
            // above reads the ring directly -- and it keeps
            // drained + queued == writes exact per bank.
            if (bank.queued == queueDepth) {
                --bank.queued;
                ++bank.drained;
                ++totalDrained;
            }
            drainSlot(pkt.bank, bank.head) = drain_done;
            bank.head = (bank.head + 1) % queueDepth;
            ++bank.queued;
        }
        ++bank.writes;
        ++totalWrites;
        // The vault sees the fast buffered acknowledge, not the drain.
        res.start = admit;
        res.dataReady = admit + writeAck;
        res.bankFree = res.dataReady;
    } else {
        // Reads come from the array and wait behind any drain in
        // progress -- the read-after-write penalty that makes write
        // bursts visible to read latency.
        const Tick start = ready > bank.arrayFree ? ready : bank.arrayFree;
        const Tick data_ready = start + readLatency;
        bank.arrayFree = data_ready;
        ++totalReads;
        res.start = start;
        res.dataReady = data_ready;
        res.bankFree = data_ready;
    }
    return res;
}

void
NvmBackend::registerStats(StatRegistry &registry,
                          const StatPath &path) const
{
    registry.addValue((path / "nvm_reads").str(),
                      "array reads serviced by the NVM tier",
                      &totalReads);
    registry.addValue((path / "nvm_writes").str(),
                      "writes absorbed by the NVM tier", &totalWrites);
    for (std::size_t i = 0; i < banks.size(); ++i) {
        registry.addValue(
            (path / ("endurance_bank" + std::to_string(i))).str(),
            "endurance: writes absorbed by this bank",
            &banks[i].writes);
    }
}

void
NvmBackend::registerCheckers(CheckerRegistry &registry,
                             const std::string &name) const
{
    // Endurance conservation: per-bank wear counters must always sum
    // to the accepted write total -- a drifting sum means a write was
    // double-counted or charged to the wrong bank.
    registry.addLambda(name + ".endurance",
                       [this](Tick) -> std::string {
        std::uint64_t sum = 0;
        for (const BankState &bank : banks)
            sum += bank.writes;
        if (sum == totalWrites)
            return {};
        std::ostringstream out;
        out << "per-bank endurance counters sum to " << sum
            << " but " << totalWrites << " writes were accepted";
        return out.str();
    });
    // Drain-retirement conservation: with a finite ring, every write
    // is either still queued or has been retired -- per bank and in
    // total. Holds across a fork because all cursors and counters
    // are value state (tests/test_snapshot_fork.cc re-runs this
    // checker on a forked twin).
    if (queueDepth > 0) {
        registry.addLambda(name + ".drain_conservation",
                           [this](Tick) -> std::string {
            std::uint64_t queued = 0;
            std::uint64_t drained = 0;
            for (std::size_t b = 0; b < banks.size(); ++b) {
                const BankState &bank = banks[b];
                if (bank.queued > queueDepth) {
                    std::ostringstream out;
                    out << "bank " << b << " drain ring holds "
                        << bank.queued << " entries, depth "
                        << queueDepth;
                    return out.str();
                }
                if (bank.drained + bank.queued != bank.writes) {
                    std::ostringstream out;
                    out << "bank " << b << " drain accounting: "
                        << bank.drained << " retired + " << bank.queued
                        << " queued != " << bank.writes << " writes";
                    return out.str();
                }
                queued += bank.queued;
                drained += bank.drained;
            }
            if (drained != totalDrained ||
                drained + queued != totalWrites) {
                std::ostringstream out;
                out << "drain totals: " << drained << " retired + "
                    << queued << " queued vs totals retired="
                    << totalDrained << " writes=" << totalWrites;
                return out.str();
            }
            return {};
        });
    }
}

void
NvmBackend::reset()
{
    for (BankState &bank : banks)
        bank = BankState{};
    for (Tick &slot : drainDone)
        slot = 0;
    totalReads = 0;
    totalWrites = 0;
    totalDrained = 0;
}

} // namespace hmcsim
