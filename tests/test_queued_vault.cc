/**
 * @file
 * Tests for the event-driven queued vault, including cross-validation
 * against the analytic VaultController and the two measured limits of
 * that cross-validation (docs/MODEL.md, "Reference vault vs analytic
 * vault").
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "hmc/queued_vault.hh"
#include "hmc/vault_controller.hh"
#include "mem/nvm_backend.hh"
#include "sim/random.hh"

namespace hmcsim
{
namespace
{

Packet
request(Command cmd, unsigned bank, std::uint32_t row, Addr addr = 0,
        Bytes payload = 128)
{
    Packet pkt;
    pkt.cmd = cmd;
    pkt.payload = payload;
    pkt.bank = static_cast<std::uint8_t>(bank);
    pkt.row = row;
    pkt.addr = addr;
    return pkt;
}

Packet
read128(unsigned bank, std::uint32_t row, Addr addr = 0)
{
    return request(Command::Read, bank, row, addr);
}

/** Drive both models with the same arrival schedule; return the
 *  completion times of each. */
struct CrossRun
{
    std::vector<Tick> analytic;
    std::vector<Tick> queued;
};

CrossRun
crossValidate(const std::vector<std::pair<Tick, Packet>> &arrivals,
              const VaultConfig &cfg = VaultConfig{})
{
    CrossRun out;

    // Analytic model: completions computed at arrival.
    VaultController analytic(cfg);
    for (const auto &[when, pkt] : arrivals)
        out.analytic.push_back(analytic.service(pkt, when));

    // Queued model: completions delivered by events.
    EventQueue queue;
    QueuedVaultConfig qcfg;
    qcfg.base = cfg;
    std::vector<std::pair<std::uint64_t, Tick>> done;
    QueuedVaultController queued(
        qcfg, queue, [&done](const Packet &pkt, Tick at) {
            done.emplace_back(pkt.id, at);
        });
    // Arrival packets live outside the event captures: a by-value
    // Packet no longer fits the Event inline budget (sim/event.hh).
    std::vector<Packet> stamped;
    stamped.reserve(arrivals.size());
    std::uint64_t id = 0;
    for (const auto &[when, pkt] : arrivals) {
        (void)when;
        stamped.push_back(pkt);
        stamped.back().id = id++;
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Packet *pkt = &stamped[i];
        queue.schedule(arrivals[i].first, [&queued, pkt] {
            ASSERT_TRUE(queued.offer(*pkt));
        });
    }
    queue.runToCompletion();

    out.queued.resize(done.size());
    for (const auto &[pkt_id, at] : done)
        out.queued.at(pkt_id) = at;
    return out;
}

void
expectExactMatch(const CrossRun &run)
{
    ASSERT_EQ(run.analytic.size(), run.queued.size());
    for (std::size_t i = 0; i < run.analytic.size(); ++i)
        ASSERT_EQ(run.analytic[i], run.queued[i]) << "request " << i;
}

/** @p n single-bank requests every @p spacing ticks; a third are
 *  @p other (the rest reads), at random rows and 32 B-aligned
 *  addresses from @p addr_of. */
std::vector<std::pair<Tick, Packet>>
singleBankSchedule(int n, std::uint64_t seed, Command other,
                   Bytes payload, Tick spacing,
                   Addr (*addr_of)(Xoshiro256StarStar &))
{
    Xoshiro256StarStar rng(seed);
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < n; ++i) {
        const Command cmd =
            rng.nextBounded(3) == 0 ? other : Command::Read;
        const auto row =
            static_cast<std::uint32_t>(rng.nextBounded(4096));
        arrivals.emplace_back(static_cast<Tick>(i) * spacing,
                              request(cmd, 0, row, addr_of(rng),
                                      payload));
    }
    return arrivals;
}

Addr
anyAddress(Xoshiro256StarStar &rng)
{
    return rng.nextBounded(1u << 20) * 32;
}

TEST(QueuedVault, SingleBankMatchesAnalyticExactly)
{
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 200; ++i)
        arrivals.emplace_back(i * 1000, read128(0, i));
    expectExactMatch(crossValidate(arrivals));
}

TEST(QueuedVault, SingleBankAtomicsAndReadsMatchAnalyticExactly)
{
    // Both models add the ALU latency to the bank's data-ready time
    // before the bus sees the transfer.
    expectExactMatch(crossValidate(singleBankSchedule(
        600, 41, Command::Atomic, 16, 1500, anyAddress)));
}

TEST(QueuedVault, SingleBankNvmWithWritesMatchesAnalyticExactly)
{
    // The analytic model buffers a write as soon as it arrives; the
    // queued model only once the bank's previous access is done. The
    // 8 ns write acknowledge is shorter than the previous request's
    // 16 ns bus transfer, so in both models the write completes one
    // transfer after it.
    VaultConfig cfg;
    cfg.backend.kind = BackendKind::Nvm;
    expectExactMatch(crossValidate(
        singleBankSchedule(600, 43, Command::Write, 128, 2000,
                           anyAddress),
        cfg));
}

TEST(QueuedVault, NvmWriteBurstWrapsTheDrainRing)
{
    // 200 writes to one bank every 0.5 ns: far more than the
    // 8-entry write queue holds, so the ring wraps many times and
    // every wrap retires its oldest entry on slot reuse. Every
    // checker (queue bounds, endurance and drain conservation, pool
    // conservation) runs after every event and must stay silent.
    QueuedVaultConfig cfg;
    cfg.base.backend.kind = BackendKind::Nvm;
    EventQueue queue;
    std::uint64_t completed = 0;
    QueuedVaultController vault(
        cfg, queue, [&completed](const Packet &, Tick) { ++completed; });
    CheckerRegistry checkers;
    std::vector<std::string> reports;
    checkers.setFailureHandler(
        [&reports](const std::string &report) {
            reports.push_back(report);
        });
    vault.registerCheckers(checkers, "vault");
    queue.setCheckers(&checkers, 1);

    const int n = 200;
    std::vector<Packet> stamped;
    stamped.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        stamped.push_back(
            request(Command::Write, 0, static_cast<std::uint32_t>(i)));
    for (int i = 0; i < n; ++i) {
        const Packet *pkt = &stamped[static_cast<std::size_t>(i)];
        queue.schedule(static_cast<Tick>(i) * 500,
                       [&vault, pkt] { vault.offer(*pkt); });
    }
    queue.runToCompletion();

    EXPECT_EQ(completed, static_cast<std::uint64_t>(n));
    EXPECT_GT(checkers.checksRun(), 0u);
    EXPECT_TRUE(reports.empty()) << reports.front();
    const auto &nvm = static_cast<const NvmBackend &>(vault.backend());
    EXPECT_EQ(nvm.drainedWrites(),
              static_cast<std::uint64_t>(n) -
                  cfg.base.backend.nvmWriteQueueDepth);
    EXPECT_EQ(nvm.drainedWrites() + nvm.queuedWrites(),
              static_cast<std::uint64_t>(n));
}

// ---------------------------------------------------------------------
// Measured limits of the cross-validation (docs/MODEL.md, "Reference
// vault vs analytic vault"): the models are not claimed equal here,
// and these tests pin how far apart they are.
// ---------------------------------------------------------------------

/** Addresses inside one DDR4 row: the backend maps banks and rows
 *  from the address, so these all hit DDR4 bank 0's open row and no
 *  activation (tFAW window) is ever charged. */
Addr
oneDdr4Row(Xoshiro256StarStar &rng)
{
    return rng.nextBounded(32) * 32;
}

TEST(QueuedVaultLimits, Ddr4BusRateGapIsBounded)
{
    // The analytic vault books its bus at the backend's
    // busBytesPerSecond() (19.2 GB/s for DDR4); the queued vault
    // derives the rate from the beat geometry (32 B per 1.67 ns =
    // 19.16 GB/s). Each transfer therefore takes a little longer in
    // the queued model, and the gap accumulates across transfers
    // that queue back to back on the bus.
    VaultConfig cfg;
    cfg.backend.kind = BackendKind::Ddr4;
    const auto arrivals = singleBankSchedule(600, 47, Command::Write,
                                             128, 2000, oneDdr4Row);
    const CrossRun run = crossValidate(arrivals, cfg);
    ASSERT_EQ(run.analytic.size(), run.queued.size());

    const DramTimings &t = cfg.backend.ddrTimings;
    const double queued_ps_per_byte =
        static_cast<double>(t.tBeat) / static_cast<double>(t.beatBytes);
    const double analytic_ps_per_byte =
        1e12 / cfg.backend.ddrBusBytesPerSecond;
    // Each request moves 4 data beats + 1 command beat of 32 B.
    const double gap_per_transfer =
        160.0 * (queued_ps_per_byte - analytic_ps_per_byte);
    ASSERT_GT(gap_per_transfer, 16.0);
    ASSERT_LT(gap_per_transfer, 17.0);
    for (std::size_t i = 0; i < run.analytic.size(); ++i) {
        ASSERT_GT(run.queued[i], run.analytic[i]) << "request " << i;
        // At most every earlier transfer's gap, plus two ticks: the
        // analytic model truncates its double horizon to whole ticks,
        // and that horizon carries its own rounding error.
        const double bound =
            static_cast<double>(i + 1) * gap_per_transfer + 2.0;
        ASSERT_LE(static_cast<double>(run.queued[i] - run.analytic[i]),
                  bound)
            << "request " << i;
    }
    // Unloaded, the first transfer shows exactly one gap.
    EXPECT_EQ(run.queued[0] - run.analytic[0], 17u);

    // Give the analytic bus the geometry's rate and the gap is gone.
    cfg.backend.ddrBusBytesPerSecond =
        static_cast<double>(t.beatBytes) * 1e12 /
        static_cast<double>(t.tBeat);
    expectExactMatch(crossValidate(arrivals, cfg));
}

TEST(QueuedVaultLimits, RefreshDueDuringABacklogLandsEarlierInQueued)
{
    // The DRAM backend catches refresh up to the `ready` its caller
    // passes. The analytic vault passes arrival + controller latency;
    // the queued vault passes the time the bank actually starts the
    // access. A refresh that falls due while a backlog is queued
    // therefore runs before the next queued access in the queued
    // model, but behind the whole backlog in the analytic one: the
    // requests in between complete exactly tRFC later in the queued
    // model, and every other completion matches.
    VaultConfig cfg;
    cfg.refreshEnabled = true;
    Xoshiro256StarStar rng(29);
    std::vector<std::pair<Tick, Packet>> backlogged;
    Tick when = 0;
    for (int i = 0; i < 600; ++i) {
        // Bursts of 50 arrivals 3 ns apart outrun the bank; 5 us
        // gaps let the backlog drain.
        when += (i % 50 == 0) ? 5 * tickUs : 3000;
        const Command cmd = rng.nextBounded(3) == 0 ? Command::Write
                                                    : Command::Read;
        const auto row =
            static_cast<std::uint32_t>(rng.nextBounded(4096));
        backlogged.emplace_back(when,
                                request(cmd, 0, row, anyAddress(rng)));
    }
    const CrossRun run = crossValidate(backlogged, cfg);
    ASSERT_EQ(run.analytic.size(), run.queued.size());
    std::size_t later = 0;
    for (std::size_t i = 0; i < run.analytic.size(); ++i) {
        if (run.queued[i] == run.analytic[i])
            continue;
        ASSERT_EQ(run.queued[i] - run.analytic[i], cfg.timings.tRfc)
            << "request " << i;
        ++later;
    }
    EXPECT_GT(later, 0u);

    // Without refresh, or without a backlog, the models agree.
    VaultConfig no_refresh;
    expectExactMatch(crossValidate(backlogged, no_refresh));
    std::vector<std::pair<Tick, Packet>> spaced;
    for (std::size_t i = 0; i < backlogged.size(); ++i)
        spaced.emplace_back(static_cast<Tick>(i) * 100000,
                            backlogged[i].second);
    expectExactMatch(crossValidate(spaced, cfg));
}

TEST(QueuedVault, PerBankSerializedMatchesAnalyticExactly)
{
    // Round-robin across banks with arrivals spaced so data-ready
    // order equals arrival order: both models must agree exactly.
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 256; ++i)
        arrivals.emplace_back(i * 60000, read128(i % 16, i / 16));
    expectExactMatch(crossValidate(arrivals));
}

TEST(QueuedVault, SaturatedRandomThroughputWithinTolerance)
{
    // Mixed random traffic at saturation: bus-arbitration order
    // differs between the models, but sustained throughput must
    // agree within a few percent.
    Xoshiro256StarStar rng(5);
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 4000; ++i) {
        arrivals.emplace_back(
            i * 2000, read128(static_cast<unsigned>(rng.nextBounded(16)),
                              static_cast<std::uint32_t>(
                                  rng.nextBounded(4096)),
                              rng.nextBounded(1u << 20) * 32));
    }
    const CrossRun run = crossValidate(arrivals);
    const Tick analytic_end =
        *std::max_element(run.analytic.begin(), run.analytic.end());
    const Tick queued_end =
        *std::max_element(run.queued.begin(), run.queued.end());
    const double ratio = static_cast<double>(analytic_end) /
                         static_cast<double>(queued_end);
    EXPECT_NEAR(ratio, 1.0, 0.03);
}

TEST(QueuedVault, FiniteQueueBackpressures)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 4;
    unsigned completed = 0;
    QueuedVaultController vault(
        cfg, queue, [&completed](const Packet &, Tick) { ++completed; });

    // Flood bank 0 at time zero: depth 4 plus the one in service.
    unsigned accepted = 0;
    for (int i = 0; i < 20; ++i)
        accepted += vault.offer(read128(0, i));
    EXPECT_LT(accepted, 20u);
    EXPECT_GE(accepted, 4u);
    EXPECT_EQ(vault.stats().rejected, 20u - accepted);
    queue.runToCompletion();
    EXPECT_EQ(completed, accepted);
}

TEST(QueuedVault, QueueDrainsAndReaccepts)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 2;
    QueuedVaultController vault(cfg, queue,
                                [](const Packet &, Tick) {});
    for (int i = 0; i < 3; ++i)
        vault.offer(read128(0, i));
    EXPECT_FALSE(vault.offer(read128(0, 99)));
    queue.runToCompletion();
    EXPECT_EQ(vault.queueDepth(0), 0u);
    EXPECT_TRUE(vault.offer(read128(0, 100)));
}

TEST(QueuedVault, BusBusyTimeMatchesWorkDone)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    QueuedVaultController vault(cfg, queue,
                                [](const Packet &, Tick) {});
    const int n = 50;
    for (int i = 0; i < n; ++i)
        vault.offer(read128(i % 16, 0));
    queue.runToCompletion();
    // Each 128 B read moves 4 data beats + 1 command beat = 160 bus
    // bytes at 10 GB/s = 16 ns.
    EXPECT_EQ(vault.stats().busBusy,
              static_cast<Tick>(n) * nsToTicks(16.0));
    EXPECT_EQ(vault.stats().completed, static_cast<std::uint64_t>(n));
}

TEST(QueuedVault, BusStageBackpressureBoundsOccupancy)
{
    // With a finite bank-to-bus stage, a saturating source cannot
    // pile unbounded work between the banks and the bus.
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 8;
    cfg.busQueueLimit = 4;
    std::uint64_t completed = 0;
    double residence_sum = 0.0;
    QueuedVaultController *vault_ptr = nullptr;
    std::function<void()> refill;
    QueuedVaultController vault(
        cfg, queue, [&](const Packet &pkt, Tick at) {
            ++completed;
            residence_sum += ticksToUs(at - pkt.tVaultArrive);
            refill();
        });
    vault_ptr = &vault;
    refill = [&] {
        for (unsigned b = 0; b < 8; ++b) {
            Packet pkt;
            pkt.cmd = Command::Read;
            pkt.payload = 128;
            pkt.bank = static_cast<std::uint8_t>(b);
            pkt.row = static_cast<std::uint32_t>(completed + b);
            vault_ptr->offer(pkt);
        }
    };
    queue.schedule(0, refill);
    queue.runUntil(500 * tickUs);
    ASSERT_GT(completed, 1000u);
    // Mean residence stays bounded (queue depth x service), far from
    // the unbounded growth an infinite stage would show.
    EXPECT_LT(residence_sum / static_cast<double>(completed), 5.0);
}

TEST(QueuedVault, DistinctBanksOverlapLikeAnalytic)
{
    // 8 requests to 8 banks complete far sooner than 8 to one bank.
    EventQueue q1, q2;
    QueuedVaultConfig cfg;
    Tick last_spread = 0, last_single = 0;
    QueuedVaultController spread(
        cfg, q1, [&](const Packet &, Tick at) { last_spread = at; });
    QueuedVaultController single(
        cfg, q2, [&](const Packet &, Tick at) { last_single = at; });
    for (int i = 0; i < 8; ++i) {
        spread.offer(read128(i, 0));
        single.offer(read128(0, i));
    }
    q1.runToCompletion();
    q2.runToCompletion();
    EXPECT_LT(last_spread, last_single);
}

} // namespace
} // namespace hmcsim
