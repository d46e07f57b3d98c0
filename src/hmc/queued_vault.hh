/**
 * @file
 * Event-driven vault controller reference model.
 *
 * The production `VaultController` books bank and bus time
 * analytically (each request's completion is computed at arrival);
 * that is fast but it deserves justification. This reference model
 * simulates the same vault explicitly -- finite per-bank queues, a
 * FCFS bank scheduler, and a FIFO TSV data-bus arbiter driven by
 * discrete events -- so tests can check the analytic booking against
 * it. The two differ in one documented respect: the analytic model
 * claims bus slots in request-arrival order while this model grants
 * them in data-ready order; for per-bank-serialized traffic the
 * orders coincide (completions match exactly), and for mixed loads
 * the throughput difference is bounded by tests at a few percent.
 * The queued model also covers what the analytic path cannot: finite
 * queue depths with backpressure, which the Fig. 17 discussion
 * speculates about.
 */

#ifndef HMCSIM_HMC_QUEUED_VAULT_HH
#define HMCSIM_HMC_QUEUED_VAULT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "hmc/vault_controller.hh"
#include "mem/backend.hh"
#include "protocol/packet.hh"
#include "protocol/packet_pool.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"

namespace hmcsim
{

/** Configuration of the queued reference vault. */
struct QueuedVaultConfig
{
    VaultConfig base;
    /**
     * Per-bank request-queue depth; 0 = unbounded (matching the
     * analytic model's assumption that backpressure lives in the
     * host-side tag pools).
     */
    unsigned perBankQueueDepth = 0;
    /**
     * Bank-to-bus staging slots; a bank defers its next array access
     * while the stage is full (real controllers backpressure here).
     * 0 = unbounded, which matches the analytic model's booking.
     */
    unsigned busQueueLimit = 0;
};

/** Statistics of the queued vault. */
struct QueuedVaultStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0; ///< Backpressured at a full queue.
    std::uint64_t completed = 0;
    Tick busBusy = 0;
};

/** The event-driven vault. */
class QueuedVaultController
{
  public:
    /** Called when a request's data has crossed the TSV bus. */
    using CompletionFn = std::function<void(const Packet &, Tick)>;

    QueuedVaultController(const QueuedVaultConfig &cfg,
                          EventQueue &queue, CompletionFn on_complete);

    /**
     * Offer a request to the vault at the current event time.
     * @return false when the target bank's queue is full (the caller
     *         must hold the request and retry -- backpressure).
     */
    bool offer(const Packet &pkt);

    /**
     * Register this vault's model invariants under @p name: per-bank
     * queue occupancy within the configured depth, bank-to-bus stage
     * occupancy within its limit plus one slot per in-flight bank,
     * bank state-machine legality, and completion/acceptance counter
     * sanity. The vault must outlive the registry.
     */
    void registerCheckers(CheckerRegistry &registry,
                          const std::string &name) const;

    const QueuedVaultStats &stats() const { return _stats; }

    /** The vault's storage engine (inspection; tests read backend-
     *  side bookkeeping such as NVM drain retirement through it). */
    const MemoryBackend &backend() const { return *storage; }

    /** Requests currently queued at bank @p idx. */
    std::size_t queueDepth(unsigned idx) const
    {
        return bankQueues.at(idx).size();
    }

  private:
    /** Start the bank access at the head of bank @p idx's queue. */
    void startNext(unsigned bank_idx);

    /** Bank finished its array access; contend for the data bus. */
    void onBankDone(unsigned bank_idx, std::uint32_t pkt,
                    std::uint64_t offer_seq);

    /** Grant the bus to the next waiting transfer, if any. */
    void grantBus();

    /** Queue a grant attempt for the current tick (coalesced). */
    void scheduleGrant();

    /** TSV bus footprint of @p pkt (command beats + aligned data). */
    Bytes busBytesFor(const Packet &pkt) const;

    QueuedVaultConfig cfg;
    EventQueue &queue;
    CompletionFn onComplete;

    /**
     * Every queued or in-flight request lives in a pooled slot from
     * offer() until its completion callback returns; queues and event
     * captures hold only slots, keeping captures inside the Event
     * inline budget (sim/event.hh) and the steady state free of
     * per-request allocation.
     */
    PacketPool pool;

    struct BankState
    {
        bool busy = false;
    };
    std::vector<BankState> bankState;
    /** Storage engine shared with the analytic model's selection
     *  (cfg.base.backend): the two reference implementations always
     *  time the same array. */
    std::unique_ptr<MemoryBackend> storage;
    /** Devirtualized view of `storage` for the default HMC DRAM
     *  array, mirroring VaultController's per-packet fast path;
     *  null for every other backend kind. */
    HmcDramBackend *fastHmc = nullptr;

    /** A request waiting at a bank, stamped with its admission order
     *  (the age the bus arbiter breaks ties with). */
    struct QueuedRequest
    {
        std::uint32_t pkt;
        std::uint64_t offerSeq;
    };
    std::vector<std::deque<QueuedRequest>> bankQueues;

    struct BusRequest
    {
        std::uint32_t pkt;
        Bytes busBytes;
        /** Tick the bank data became ready (= stage-entry time). */
        Tick dataReady;
        std::uint64_t offerSeq;
    };
    /** Waiting transfers in (dataReady, offerSeq) order: entries
     *  arrive in dataReady order, and onBankDone reorders the
     *  equal-dataReady tail by age (offerSeq). */
    std::deque<BusRequest> busQueue;
    bool busBusy = false;
    /** A same-tick grant event is already queued. Grants are never
     *  made inline: every bank-done event of the current tick must
     *  insert first so age arbitration sees the full candidate set
     *  (same-tick scheduled events run after all pre-scheduled
     *  ones). */
    bool grantPending = false;
    /** Admission counter: the age stamped on each QueuedRequest. */
    std::uint64_t nextOfferSeq = 0;

    QueuedVaultStats _stats;
};

} // namespace hmcsim

#endif // HMCSIM_HMC_QUEUED_VAULT_HH
