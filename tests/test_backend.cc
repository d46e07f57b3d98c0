/**
 * @file
 * MemoryBackend interface tests (mem/backend.hh, docs/backends.md).
 *
 * The load-bearing suite is the HMC parity differential: the vault
 * controller refactored onto the backend interface must reproduce the
 * pre-refactor analytic math tick for tick, request for request --
 * the byte-identity rule of docs/performance.md, checked here against
 * an embedded replica of the legacy arithmetic rather than a golden
 * file. The rest covers the DDR4 backend's row locality, the NVM
 * tier's asymmetric timing / write-queue drain / endurance counters,
 * and the backend sweep axis's determinism and cache stability.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "dram/bank.hh"
#include "gups/patterns.hh"
#include "hmc/address_mapper.hh"
#include "hmc/config.hh"
#include "hmc/vault_controller.hh"
#include "host/experiment.hh"
#include "link/link.hh"
#include "mem/backend.hh"
#include "mem/ddr4_backend.hh"
#include "mem/nvm_backend.hh"
#include "runner/config_digest.hh"
#include "runner/sweep.hh"
#include "sim/random.hh"

namespace
{

using namespace hmcsim;

Packet
makePacket(Command cmd, Addr addr, unsigned bank, std::uint32_t row,
           Bytes payload)
{
    Packet pkt{};
    pkt.cmd = cmd;
    pkt.addr = addr;
    pkt.payload = payload;
    pkt.bank = static_cast<std::uint8_t>(bank);
    pkt.row = row;
    return pkt;
}

// ---------------------------------------------------------------------
// Factory and naming
// ---------------------------------------------------------------------

TEST(BackendFactory, MakesEverySelectedKind)
{
    BackendEnvironment env;
    MemoryBackendConfig cfg;
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        cfg.kind = kind;
        const auto backend = makeMemoryBackend(env, cfg);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->kind(), kind);
        EXPECT_EQ(backend->numBanks(), env.numBanks);
        EXPECT_GT(backend->busBytesPerSecond(), 0.0);
    }
}

TEST(BackendFactory, NamesRoundTripThroughTheParser)
{
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        BackendKind parsed;
        ASSERT_TRUE(parseBackendKind(backendName(kind), parsed))
            << backendName(kind);
        EXPECT_EQ(parsed, kind);
    }
    BackendKind parsed;
    EXPECT_TRUE(parseBackendKind("pcm", parsed));
    EXPECT_EQ(parsed, BackendKind::Nvm);
    EXPECT_TRUE(parseBackendKind("dram", parsed));
    EXPECT_EQ(parsed, BackendKind::HmcDram);
    EXPECT_FALSE(parseBackendKind("flash", parsed));
}

// ---------------------------------------------------------------------
// HMC parity: the interface must not change a single tick
// ---------------------------------------------------------------------

/**
 * The analytic vault exactly as it was before the MemoryBackend
 * extraction: banks, staggered refresh bookkeeping, and the TSV bus
 * regulator inline. Any divergence between this and VaultController
 * is a parity break in the refactor.
 */
class LegacyVaultReplica
{
  public:
    explicit LegacyVaultReplica(const VaultConfig &cfg)
        : cfg(cfg), banks(cfg.numBanks), nextRefresh(cfg.numBanks, 0),
          dataBus(static_cast<double>(cfg.timings.beatBytes) * 1e12 /
                  static_cast<double>(cfg.timings.tBeat))
    {
        const Tick interval = refreshInterval();
        if (interval != 0)
            for (unsigned i = 0; i < cfg.numBanks; ++i)
                nextRefresh[i] = interval * (i + 1) / cfg.numBanks;
    }

    Tick
    refreshInterval() const
    {
        if (!cfg.refreshEnabled || cfg.refreshMultiplier <= 0.0)
            return 0;
        return static_cast<Tick>(
            static_cast<double>(cfg.timings.tRefi) /
            cfg.refreshMultiplier);
    }

    Tick
    service(const Packet &pkt, Tick arrival)
    {
        const Tick start = arrival + cfg.controllerLatency;
        const bool is_write = pkt.cmd != Command::Read;
        refreshDue(pkt.bank, start);
        BankAccessResult res =
            banks.at(pkt.bank).access(cfg.timings, cfg.policy, start,
                                      pkt.row, pkt.payload, is_write);
        if (pkt.cmd == Command::Atomic)
            res.dataReady += cfg.atomicLatency;
        const Bytes beat_span =
            (pkt.addr % cfg.timings.beatBytes) + pkt.payload;
        const Bytes bus_bytes =
            (cfg.timings.beats(beat_span) + cfg.commandBeats) *
            cfg.timings.beatBytes;
        return dataBus.admit(res.dataReady,
                             static_cast<double>(bus_bytes));
    }

    std::uint64_t refreshes() const { return numRefreshes; }

  private:
    void
    refreshDue(unsigned bank_idx, Tick now)
    {
        const Tick interval = refreshInterval();
        if (interval == 0)
            return;
        while (nextRefresh[bank_idx] <= now) {
            banks[bank_idx].refresh(cfg.timings,
                                    nextRefresh[bank_idx]);
            nextRefresh[bank_idx] += interval;
            ++numRefreshes;
        }
    }

    VaultConfig cfg;
    std::vector<Bank> banks;
    std::vector<Tick> nextRefresh;
    ThroughputRegulator dataBus;
    std::uint64_t numRefreshes = 0;
};

/** Drive both models with one pseudo-random request stream. */
void
expectParity(const VaultConfig &cfg, std::uint64_t seed)
{
    VaultController vault(cfg);
    LegacyVaultReplica replica(cfg);
    Xoshiro256StarStar rng(seed);

    Tick arrival = 0;
    for (unsigned i = 0; i < 4000; ++i) {
        const unsigned bank = static_cast<unsigned>(
            rng.nextBounded(cfg.numBanks));
        const auto row =
            static_cast<std::uint32_t>(rng.nextBounded(1024));
        const Bytes payload = 16u << rng.nextBounded(4); // 16..128
        const Addr addr = rng.nextBounded(1u << 30);
        const std::uint64_t pick = rng.nextBounded(4);
        const Command cmd = pick == 0   ? Command::Write
                            : pick == 1 ? Command::Atomic
                                        : Command::Read;
        const Packet pkt = makePacket(cmd, addr, bank, row, payload);
        ASSERT_EQ(vault.service(pkt, arrival),
                  replica.service(pkt, arrival))
            << "request " << i << " at arrival " << arrival;
        arrival += rng.nextBounded(200);
    }
    EXPECT_EQ(vault.stats().refreshes, replica.refreshes());
}

TEST(HmcParity, InterfaceIsTickIdenticalToLegacyMath)
{
    expectParity(VaultConfig{}, 7);
}

TEST(HmcParity, ParityHoldsWithRefreshEnabled)
{
    VaultConfig cfg;
    cfg.refreshEnabled = true;
    cfg.refreshMultiplier = 2.0; // hot-device rate, more refreshes
    expectParity(cfg, 11);
}

TEST(HmcParity, ParityHoldsUnderOpenPagePolicy)
{
    VaultConfig cfg;
    cfg.policy = PagePolicy::Open;
    expectParity(cfg, 13);
}

// ---------------------------------------------------------------------
// DDR4 backend
// ---------------------------------------------------------------------

TEST(Ddr4Backend, RowInterleavedMappingGivesLinearTrafficRowHits)
{
    BackendEnvironment env;
    MemoryBackendConfig cfg;
    cfg.kind = BackendKind::Ddr4;
    Ddr4Backend backend(env, cfg);

    // A cold access pays one metered activation slot (tFAW / 4).
    const Tick act_slot = cfg.ddrTFaw / cfg.ddrActivatesPerFaw;
    const BankAccessResult first =
        backend.accept(makePacket(Command::Read, 0, 0, 0, 64), 0);
    EXPECT_FALSE(first.rowHit);
    EXPECT_EQ(first.start, act_slot);

    // The next 64 B address shares the first 1 KB row: a row hit that
    // skips the activation regulator and starts as soon as the bank
    // frees, with a shorter array occupancy.
    const BankAccessResult second =
        backend.accept(makePacket(Command::Read, 64, 0, 0, 64),
                       first.bankFree);
    EXPECT_TRUE(second.rowHit);
    EXPECT_EQ(second.start, first.bankFree);
    EXPECT_LT(second.dataReady - second.start,
              first.dataReady - first.start);

    // 1 KB away is the next row, mapped to the next bank: a miss that
    // pays the second activation slot rather than waiting for bank 0.
    const BankAccessResult other =
        backend.accept(makePacket(Command::Read, 1024, 0, 0, 64), 0);
    EXPECT_FALSE(other.rowHit);
    EXPECT_EQ(other.start, 2 * act_slot);
    EXPECT_LT(other.start, first.bankFree);
}

TEST(Ddr4Backend, HonorsTheConfiguredClosedPagePolicy)
{
    BackendEnvironment env;
    MemoryBackendConfig cfg;
    cfg.kind = BackendKind::Ddr4;
    cfg.ddrPolicy = PagePolicy::Closed;
    Ddr4Backend backend(env, cfg);
    const BankAccessResult first =
        backend.accept(makePacket(Command::Read, 0, 0, 0, 64), 0);
    const BankAccessResult second = backend.accept(
        makePacket(Command::Read, 64, 0, 0, 64), first.bankFree);
    EXPECT_FALSE(second.rowHit);
}

// ---------------------------------------------------------------------
// NVM backend
// ---------------------------------------------------------------------

MemoryBackendConfig
nvmConfig()
{
    MemoryBackendConfig cfg;
    cfg.kind = BackendKind::Nvm;
    return cfg;
}

TEST(NvmBackend, ReadWriteTimingIsAsymmetric)
{
    BackendEnvironment env;
    const MemoryBackendConfig cfg = nvmConfig();
    NvmBackend backend(env, cfg);

    // A buffered write acknowledges after the short writeAck...
    const BankAccessResult wr =
        backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    EXPECT_EQ(wr.start, 0u);
    EXPECT_EQ(wr.dataReady, cfg.nvmWriteAck);
    EXPECT_FALSE(wr.rowHit);

    // ...while an array read takes the long read latency, and a read
    // issued behind the write's drain waits the full write occupancy.
    const BankAccessResult rd =
        backend.accept(makePacket(Command::Read, 0, 0, 0, 64), 0);
    EXPECT_EQ(rd.start, cfg.nvmWriteLatency);
    EXPECT_EQ(rd.dataReady, cfg.nvmWriteLatency + cfg.nvmReadLatency);

    // A different bank's array is idle: reads there start at once.
    const BankAccessResult other =
        backend.accept(makePacket(Command::Read, 0, 1, 0, 64), 0);
    EXPECT_EQ(other.start, 0u);
    EXPECT_EQ(other.dataReady, cfg.nvmReadLatency);
}

TEST(NvmBackend, WriteQueueFullStallsAdmission)
{
    BackendEnvironment env;
    MemoryBackendConfig cfg = nvmConfig();
    cfg.nvmWriteQueueDepth = 2;
    NvmBackend backend(env, cfg);

    // Two writes buffer instantly; the third reuses the first write's
    // queue slot and must wait for its drain (one writeLatency).
    const BankAccessResult w1 =
        backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    const BankAccessResult w2 =
        backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    const BankAccessResult w3 =
        backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    EXPECT_EQ(w1.start, 0u);
    EXPECT_EQ(w2.start, 0u);
    EXPECT_EQ(w3.start, cfg.nvmWriteLatency);
    EXPECT_EQ(w3.dataReady, cfg.nvmWriteLatency + cfg.nvmWriteAck);
}

TEST(NvmBackend, UnboundedQueueNeverStallsWrites)
{
    BackendEnvironment env;
    MemoryBackendConfig cfg = nvmConfig();
    cfg.nvmWriteQueueDepth = 0;
    NvmBackend backend(env, cfg);
    for (unsigned i = 0; i < 64; ++i) {
        const BankAccessResult w =
            backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
        EXPECT_EQ(w.start, 0u);
    }
}

TEST(NvmBackend, EndurancePerBankCountsWritesAndAtomicsOnly)
{
    BackendEnvironment env;
    NvmBackend backend(env, nvmConfig());

    backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    backend.accept(makePacket(Command::Write, 0, 0, 0, 64), 0);
    backend.accept(makePacket(Command::Atomic, 0, 3, 0, 16), 0);
    backend.accept(makePacket(Command::Read, 0, 0, 0, 64), 0);
    backend.accept(makePacket(Command::Read, 0, 5, 0, 64), 0);

    EXPECT_EQ(backend.bankWrites(0), 2u);
    EXPECT_EQ(backend.bankWrites(3), 1u); // atomics wear the cell
    EXPECT_EQ(backend.bankWrites(5), 0u);

    CheckerRegistry checkers;
    backend.registerCheckers(checkers, "nvm");
    checkers.setFailureHandler([](const std::string &report) {
        ADD_FAILURE() << report;
    });
    checkers.runAll(0);
    EXPECT_EQ(checkers.violations(), 0u);

    backend.reset();
    EXPECT_EQ(backend.bankWrites(0), 0u);
    EXPECT_EQ(backend.bankWrites(3), 0u);
}

TEST(NvmBackend, EnduranceCountersAreRegisteredStats)
{
    BackendEnvironment env;
    NvmBackend backend(env, nvmConfig());
    backend.accept(makePacket(Command::Write, 0, 2, 0, 64), 0);

    StatRegistry registry;
    backend.registerStats(registry, StatPath("vault0"));
    ASSERT_TRUE(registry.has("vault0.endurance_bank2"));
    EXPECT_EQ(registry.value("vault0.endurance_bank2"), 1.0);
    EXPECT_EQ(registry.value("vault0.nvm_writes"), 1.0);
    EXPECT_EQ(registry.value("vault0.nvm_reads"), 0.0);
}

// ---------------------------------------------------------------------
// The three backends through the unified experiment path
// ---------------------------------------------------------------------

/** Write-heavy single-bank config: array timing dominates, so the
 *  three storage engines must separate clearly. */
ExperimentConfig
backendProbeConfig(BackendKind kind)
{
    static const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                      MaxBlockSize::B128);
    ExperimentConfig cfg;
    cfg.pattern = bankPattern(mapper, 1);
    cfg.mix = RequestMix::WriteOnly;
    cfg.requestSize = 64;
    cfg.warmup = 10 * tickUs;
    cfg.measure = 50 * tickUs;
    cfg.device.vault.backend.kind = kind;
    return cfg;
}

TEST(BackendExperiment, ThreeBackendsProduceDistinctResults)
{
    std::set<std::uint64_t> digests;
    std::set<double> bandwidths;
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        const ExperimentConfig cfg = backendProbeConfig(kind);
        digests.insert(configDigest(cfg));
        const MeasurementResult res = runExperiment(cfg);
        EXPECT_GT(res.rawGBps, 0.0) << backendName(kind);
        bandwidths.insert(res.rawGBps);
    }
    EXPECT_EQ(digests.size(), 3u);
    EXPECT_EQ(bandwidths.size(), 3u);
}

TEST(BackendExperiment, NvmWriteDrainThrottlesABoundBank)
{
    // One bank, write-only: HMC cycles the bank in tens of ns; the
    // NVM tier drains one write per 400 ns once its queue fills.
    const MeasurementResult dram =
        runExperiment(backendProbeConfig(BackendKind::HmcDram));
    const MeasurementResult nvm =
        runExperiment(backendProbeConfig(BackendKind::Nvm));
    EXPECT_LT(nvm.mrps, dram.mrps * 0.5);
}

TEST(BackendExperiment, SelfCheckPassesOnEveryBackend)
{
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        ExperimentConfig cfg = backendProbeConfig(kind);
        cfg.measure = 20 * tickUs;
        const SelfCheckResult check = runSelfCheck(cfg);
        EXPECT_TRUE(check.identical())
            << backendName(kind) << " first mismatch: "
            << check.firstMismatch;
    }
}

// ---------------------------------------------------------------------
// Backend sweep axis
// ---------------------------------------------------------------------

SweepAxes
backendAxes()
{
    static const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                      MaxBlockSize::B128);
    SweepAxes axes;
    axes.patterns = {vaultPattern(mapper, 4), bankPattern(mapper, 1)};
    axes.mixes = {RequestMix::ReadModifyWrite};
    axes.backends = {BackendKind::HmcDram, BackendKind::Ddr4,
                     BackendKind::Nvm};
    axes.base.warmup = 10 * tickUs;
    axes.base.measure = 30 * tickUs;
    return axes;
}

TEST(BackendSweep, AxisExpandsInnermostInCanonicalOrder)
{
    const std::vector<ExperimentConfig> points =
        backendAxes().expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].device.vault.backend.kind,
              BackendKind::HmcDram);
    EXPECT_EQ(points[1].device.vault.backend.kind, BackendKind::Ddr4);
    EXPECT_EQ(points[2].device.vault.backend.kind, BackendKind::Nvm);
    EXPECT_EQ(points[0].pattern.name, points[2].pattern.name);
    EXPECT_NE(points[0].pattern.name, points[3].pattern.name);
}

TEST(BackendSweep, ParallelBitIdenticalToSerialAcrossBackends)
{
    const auto bits = [](const MeasurementResult &m) {
        std::uint64_t out;
        std::memcpy(&out, &m.rawGBps, sizeof(out));
        return out;
    };
    SweepOptions serial;
    serial.jobs = 1;
    const auto one = SweepRunner(serial).run(backendAxes());
    SweepOptions parallel;
    parallel.jobs = 8;
    const auto eight = SweepRunner(parallel).run(backendAxes());
    ASSERT_EQ(one.size(), 6u);
    ASSERT_EQ(eight.size(), 6u);
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].digest, eight[i].digest);
        EXPECT_EQ(one[i].statDigest, eight[i].statDigest);
        EXPECT_EQ(bits(one[i].result), bits(eight[i].result));
    }
}

TEST(BackendSweep, CacheServesEveryBackendStably)
{
    ResultCache cache;
    SweepOptions opts;
    opts.jobs = 4;
    opts.cache = &cache;
    const auto first = SweepRunner(opts).run(backendAxes());
    const auto second = SweepRunner(opts).run(backendAxes());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_FALSE(first[i].fromCache);
        EXPECT_TRUE(second[i].fromCache);
        EXPECT_EQ(second[i].statDigest, first[i].statDigest);
    }
}

} // namespace
