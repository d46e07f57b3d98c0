// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
#include "hmc/queued_vault.hh"

#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "dram/bank.hh"

namespace hmcsim
{

QueuedVaultController::QueuedVaultController(const QueuedVaultConfig &cfg,
                                             EventQueue &queue,
                                             CompletionFn on_complete)
    : cfg(cfg),
      queue(queue),
      onComplete(std::move(on_complete)),
      bankState(cfg.base.numBanks),
      storage(makeMemoryBackend(
          BackendEnvironment{cfg.base.numBanks, cfg.base.timings,
                             cfg.base.policy, cfg.base.refreshEnabled,
                             cfg.base.refreshMultiplier},
          cfg.base.backend)),
      bankQueues(cfg.base.numBanks)
{
    if (storage->kind() == BackendKind::HmcDram)
        fastHmc = static_cast<HmcDramBackend *>(storage.get());
}

void
QueuedVaultController::registerCheckers(CheckerRegistry &registry,
                                        const std::string &name) const
{
    registry.addLambda(name + ".queues", [this](Tick) -> std::string {
        if (cfg.perBankQueueDepth != 0) {
            for (std::size_t b = 0; b < bankQueues.size(); ++b) {
                if (bankQueues[b].size() > cfg.perBankQueueDepth) {
                    std::ostringstream out;
                    out << "bank " << b << " queue holds "
                        << bankQueues[b].size()
                        << " requests, limit "
                        << cfg.perBankQueueDepth;
                    return out.str();
                }
            }
        }
        // Admission happens at bank-access start, but every in-flight
        // bank access later deposits into the stage without another
        // check -- occupancy may legitimately reach limit-1 plus one
        // entry per bank. Anything above that is a lost-wakeup or
        // double-push bug.
        if (cfg.busQueueLimit != 0 &&
            busQueue.size() + (busBusy ? 1u : 0u) >
                cfg.busQueueLimit + bankQueues.size()) {
            std::ostringstream out;
            out << "bus stage holds " << busQueue.size()
                << " waiting + " << (busBusy ? 1 : 0)
                << " in flight, beyond limit " << cfg.busQueueLimit
                << " + " << bankQueues.size() << " banks";
            return out.str();
        }
        return {};
    });
    storage->registerCheckers(registry, name);
    registry.addLambda(name + ".stats", [this](Tick) -> std::string {
        if (_stats.completed > _stats.accepted) {
            std::ostringstream out;
            out << _stats.completed << " completions for only "
                << _stats.accepted << " accepted requests";
            return out.str();
        }
        return {};
    });
    // Pool conservation: one live slot per accepted-but-uncompleted
    // request (queued at a bank, in the bank array, or staged for the
    // bus). Drift means a leaked or double-released slot.
    registry.addLambda(name + ".packet_pool",
                       [this](Tick) -> std::string {
        const std::uint64_t outstanding =
            _stats.accepted - _stats.completed;
        if (pool.live() == outstanding)
            return {};
        std::ostringstream out;
        out << pool.live() << " pooled packets live but " << outstanding
            << " accepted requests uncompleted";
        return out.str();
    });
}

bool
QueuedVaultController::offer(const Packet &pkt)
{
    const unsigned bank_idx = pkt.bank;
    if (cfg.perBankQueueDepth != 0 &&
        bankQueues.at(bank_idx).size() >= cfg.perBankQueueDepth) {
        ++_stats.rejected;
        return false;
    }
    ++_stats.accepted;
    const std::uint32_t slot = pool.acquire();
    pool[slot] = pkt;
    pool[slot].tVaultArrive = queue.now();
    bankQueues[bank_idx].push_back({slot, nextOfferSeq++});
    if (!bankState[bank_idx].busy)
        startNext(bank_idx);
    return true;
}

void
QueuedVaultController::startNext(unsigned bank_idx)
{
    auto &bank_queue = bankQueues[bank_idx];
    // Defer while the bank-to-bus stage is full: the data would have
    // nowhere to go (grantBus() re-sweeps the banks as it drains).
    const bool stage_full =
        cfg.busQueueLimit != 0 &&
        busQueue.size() + (busBusy ? 1u : 0u) >= cfg.busQueueLimit;
    if (bank_queue.empty() || stage_full) {
        bankState[bank_idx].busy = false;
        return;
    }
    bankState[bank_idx].busy = true;
    const std::uint32_t slot = bank_queue.front().pkt;
    Packet &pkt = pool[slot];
    const std::uint64_t offer_seq = bank_queue.front().offerSeq;
    bank_queue.pop_front();

    // A request that deferred on the bus stage starts now, not at its
    // (past) arrival time.
    const Tick earliest = pkt.tVaultArrive + cfg.base.controllerLatency;
    const Tick ready = earliest > queue.now() ? earliest : queue.now();
    BankAccessResult res = fastHmc ? fastHmc->accept(pkt, ready)
                                   : storage->accept(pkt, ready);
    pkt.tBankStart = res.start;
    if (pkt.cmd == Command::Atomic)
        res.dataReady += cfg.base.atomicLatency;

    queue.schedule(res.dataReady, [this, bank_idx, slot, offer_seq] {
        onBankDone(bank_idx, slot, offer_seq);
    });
    queue.schedule(res.bankFree, [this, bank_idx] {
        startNext(bank_idx);
    });
}

Bytes
QueuedVaultController::busBytesFor(const Packet &pkt) const
{
    const DramTimings &t = storage->timings();
    const Bytes beat_span = (pkt.addr % t.beatBytes) + pkt.payload;
    return (t.beats(beat_span) + cfg.base.commandBeats) * t.beatBytes;
}

void
QueuedVaultController::onBankDone(unsigned bank_idx, std::uint32_t pkt,
                                  std::uint64_t offer_seq)
{
    (void)bank_idx;
    // Age-based bus arbitration: the stage stays sorted by
    // (dataReady, offerSeq). Entries arrive in dataReady order, so
    // only the equal-dataReady tail (bank-done events of this same
    // tick) can need reordering.
    BusRequest req{pkt, busBytesFor(pool[pkt]), queue.now(), offer_seq};
    auto pos = busQueue.end();
    while (pos != busQueue.begin()) {
        const BusRequest &prev = *std::prev(pos);
        if (prev.dataReady != req.dataReady ||
            prev.offerSeq < req.offerSeq)
            break;
        --pos;
    }
    busQueue.insert(pos, req);
    scheduleGrant();
}

void
QueuedVaultController::scheduleGrant()
{
    if (grantPending)
        return;
    grantPending = true;
    queue.schedule(queue.now(), [this] {
        grantPending = false;
        grantBus();
    });
}

void
QueuedVaultController::grantBus()
{
    if (busBusy || busQueue.empty())
        return;
    busBusy = true;
    BusRequest req = std::move(busQueue.front());
    busQueue.pop_front();

    const DramTimings &t = storage->timings();
    const double bytes_per_ps = static_cast<double>(t.beatBytes) /
                                static_cast<double>(t.tBeat);
    const Tick duration = static_cast<Tick>(
        static_cast<double>(req.busBytes) / bytes_per_ps);
    _stats.busBusy += duration;

    queue.scheduleIn(duration, [this, slot = req.pkt] {
        ++_stats.completed;
        // A copy: the callback may offer a request, and an acquire()
        // can move the pool's packets.
        const Packet done = pool[slot];
        onComplete(done, queue.now());
        pool.release(slot);
        busBusy = false;
        scheduleGrant();
        // The stage drained: wake any banks that deferred on it.
        if (cfg.busQueueLimit != 0) {
            for (unsigned b = 0; b < bankState.size(); ++b) {
                if (!bankState[b].busy && !bankQueues[b].empty())
                    startNext(b);
            }
        }
    });
}

} // namespace hmcsim
