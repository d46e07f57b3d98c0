/**
 * @file
 * Unit tests for the GUPS firmware model: address generation with
 * mask/anti-mask registers, the issue-window refill (same stream as
 * per-call generation, allocation-free), access-pattern construction,
 * and port behavior (tag limits, credits, rw dependency, monitoring).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "counting_allocator.hh"
#include "gups/address_generator.hh"
#include "gups/gups_port.hh"
#include "gups/patterns.hh"
#include "hmc/address_mapper.hh"

namespace hmcsim
{
namespace
{

AddressGeneratorConfig
genCfg(AddressingMode mode, Bytes size, Addr mask = 0, Addr anti = 0)
{
    AddressGeneratorConfig cfg;
    cfg.mode = mode;
    cfg.requestSize = size;
    cfg.capacity = 4 * gib;
    cfg.mask = mask;
    cfg.antiMask = anti;
    return cfg;
}

TEST(AddressGenerator, LinearStridesByRequestSize)
{
    AddressGenerator gen(genCfg(AddressingMode::Linear, 128), 1);
    EXPECT_EQ(gen.next(), 0u);
    EXPECT_EQ(gen.next(), 128u);
    EXPECT_EQ(gen.next(), 256u);
}

TEST(AddressGenerator, LinearWrapsAtCapacity)
{
    AddressGeneratorConfig cfg = genCfg(AddressingMode::Linear, 128);
    cfg.capacity = 512;
    AddressGenerator gen(cfg, 1);
    gen.next();
    gen.next();
    gen.next();
    EXPECT_EQ(gen.next(), 384u);
    EXPECT_EQ(gen.next(), 0u); // wrapped
}

TEST(AddressGenerator, LinearStartOffset)
{
    AddressGeneratorConfig cfg = genCfg(AddressingMode::Linear, 64);
    cfg.linearStart = 8192;
    AddressGenerator gen(cfg, 1);
    EXPECT_EQ(gen.next(), 8192u);
    EXPECT_EQ(gen.next(), 8256u);
}

TEST(AddressGenerator, RandomIsDeterministicPerSeed)
{
    AddressGenerator a(genCfg(AddressingMode::Random, 64), 99);
    AddressGenerator b(genCfg(AddressingMode::Random, 64), 99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(AddressGenerator, RandomStaysInCapacity)
{
    AddressGeneratorConfig cfg = genCfg(AddressingMode::Random, 128);
    cfg.capacity = 1 * mib;
    AddressGenerator gen(cfg, 5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(gen.next(), 1u * mib);
}

TEST(AddressGenerator, AlignmentRules)
{
    // Multiples of 32 B align to 32; 16 B-granular sizes align to 16.
    AddressGenerator g128(genCfg(AddressingMode::Random, 128), 2);
    EXPECT_EQ(g128.alignment(), 32u);
    AddressGenerator g48(genCfg(AddressingMode::Random, 48), 2);
    EXPECT_EQ(g48.alignment(), 16u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(g128.next() % 32, 0u);
        EXPECT_EQ(g48.next() % 16, 0u);
    }
}

TEST(AddressGenerator, MaskForcesBitsToZero)
{
    const Addr mask = bitRangeMask(7, 14);
    AddressGenerator gen(genCfg(AddressingMode::Random, 128, mask), 3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next() & mask, 0u);
}

TEST(AddressGenerator, AntiMaskForcesBitsToOne)
{
    const Addr anti = Addr(1) << 20;
    AddressGenerator gen(genCfg(AddressingMode::Random, 128, 0, anti), 3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next() & anti, anti);
}

TEST(AddressGenerator, RejectsBadSizes)
{
    EXPECT_DEATH(
        { AddressGenerator gen(genCfg(AddressingMode::Random, 24), 1); },
        "multiple of 16");
}

TEST(AddressGenerator, WindowedFillMatchesPerCallStream)
{
    // The refill must consume the RNG exactly as 32 next() calls
    // would: a windowed port and a per-call port see the same stream.
    const AddressGeneratorConfig cfg = genCfg(AddressingMode::Random, 128);
    AddressGenerator per_call(cfg, 0x9999);
    AddressGenerator windowed(cfg, 0x9999);
    Addr window[32];
    for (int refill = 0; refill < 16; ++refill) {
        windowed.fill(window, 32);
        for (const Addr a : window)
            ASSERT_EQ(a, per_call.next());
    }
}

TEST(AddressGenerator, IssueWindowRefillIsAllocationFree)
{
    AddressGeneratorConfig cfg = genCfg(AddressingMode::Random, 128);
    AddressGenerator gen(cfg, 0x1234);

    Addr window[32];
    const std::size_t before = g_allocations;
    for (int refill = 0; refill < 64; ++refill) {
        gen.fill(window, 32);
        for (const Addr a : window)
            ASSERT_LT(a, cfg.capacity);
    }
    EXPECT_EQ(g_allocations, before);

    cfg.mode = AddressingMode::Linear;
    AddressGenerator lin(cfg, 0x1234);
    const std::size_t before_linear = g_allocations;
    for (int refill = 0; refill < 64; ++refill)
        lin.fill(window, 32);
    EXPECT_EQ(g_allocations, before_linear);
}

TEST(AddressGenerator, RejectsSizesAboveTheMaxPayload)
{
    // Multiples of 16 that no HMC packet carries: 144 once died deep in
    // the packet encoder, and 2^64-64 (what "-64" parses to through
    // strtoull) spun forever in the linear address walk.
    EXPECT_DEATH(
        { AddressGenerator gen(genCfg(AddressingMode::Random, 144), 1); },
        "request size 144 must be a multiple of 16 B from 16 to 128 B");
    EXPECT_DEATH(
        {
            AddressGenerator gen(
                genCfg(AddressingMode::Linear, ~Bytes(0) - 63), 1);
        },
        "request size 18446744073709551552 must be");
    EXPECT_EQ(requestSizeError(128), nullptr);
    EXPECT_EQ(requestSizeError(16), nullptr);
    EXPECT_NE(requestSizeError(144), nullptr);
    EXPECT_NE(requestSizeError(0), nullptr);
}

// ---- Patterns ---------------------------------------------------------

class PatternTest : public ::testing::Test
{
  protected:
    HmcConfig cfg = HmcConfig::gen2_4GB();
    AddressMapper mapper{cfg, MaxBlockSize::B128};
};

TEST_F(PatternTest, BankPatternConfinesTraffic)
{
    for (unsigned banks : {1u, 2u, 4u, 8u}) {
        const AccessPattern p = bankPattern(mapper, banks);
        AddressGenerator gen(
            genCfg(AddressingMode::Random, 128, p.mask, p.antiMask), 7);
        std::set<std::pair<unsigned, unsigned>> seen;
        for (int i = 0; i < 5000; ++i) {
            const DecodedAddress d = mapper.decode(gen.next());
            EXPECT_EQ(d.vault, 0u);
            EXPECT_LT(d.bank, banks);
            seen.emplace(d.vault, d.bank);
        }
        EXPECT_EQ(seen.size(), banks); // and it covers all of them
    }
}

TEST_F(PatternTest, VaultPatternConfinesTraffic)
{
    for (unsigned vaults : {1u, 2u, 4u, 8u, 16u}) {
        const AccessPattern p = vaultPattern(mapper, vaults);
        AddressGenerator gen(
            genCfg(AddressingMode::Random, 128, p.mask, p.antiMask), 7);
        std::set<unsigned> seen_vaults;
        std::set<unsigned> seen_banks;
        for (int i = 0; i < 5000; ++i) {
            const DecodedAddress d = mapper.decode(gen.next());
            EXPECT_LT(d.vault, vaults);
            seen_vaults.insert(d.vault);
            seen_banks.insert(d.bank);
        }
        EXPECT_EQ(seen_vaults.size(), vaults);
        EXPECT_EQ(seen_banks.size(), 16u); // all banks per vault
    }
}

TEST_F(PatternTest, SpansReported)
{
    EXPECT_EQ(bankPattern(mapper, 4).bankSpan, 4u);
    EXPECT_EQ(bankPattern(mapper, 4).vaultSpan, 1u);
    EXPECT_EQ(vaultPattern(mapper, 8).vaultSpan, 8u);
    EXPECT_EQ(vaultPattern(mapper, 8).bankSpan, 128u);
}

TEST_F(PatternTest, PaperAxisOrdering)
{
    const auto axis = paperPatternAxis(mapper);
    ASSERT_EQ(axis.size(), 9u);
    EXPECT_EQ(axis.front().name, "16 vaults");
    EXPECT_EQ(axis[4].name, "1 vault");
    EXPECT_EQ(axis.back().name, "1 bank");
}

TEST_F(PatternTest, Fig6MaskPositions)
{
    const auto sweep = fig6MaskSweep(mapper);
    ASSERT_EQ(sweep.size(), 7u);
    EXPECT_EQ(sweep[0].name, "24-31");
    EXPECT_EQ(sweep[2].name, "7-14");
    // Mask 7-14 kills all vault and bank bits: one bank of one vault.
    EXPECT_EQ(sweep[2].vaultSpan, 1u);
    EXPECT_EQ(sweep[2].bankSpan, 1u);
    // Mask 3-10 keeps bank bits free: one vault, all banks.
    EXPECT_EQ(sweep[3].vaultSpan, 1u);
    EXPECT_EQ(sweep[3].bankSpan, 16u);
    // Mask 2-9 frees the top vault bit: two vaults.
    EXPECT_EQ(sweep[4].vaultSpan, 2u);
}

TEST_F(PatternTest, BitRangeMask)
{
    EXPECT_EQ(bitRangeMask(0, 7), 0xFFu);
    EXPECT_EQ(bitRangeMask(7, 14), 0x7F80u);
    EXPECT_EQ(bitRangeMask(4, 4), 0x10u);
}

// ---- GupsPort ---------------------------------------------------------

struct PortHarness
{
    EventQueue queue;
    std::vector<Packet> submitted;
    std::unique_ptr<GupsPort> port;

    explicit PortHarness(GupsPortConfig cfg, unsigned id = 0)
    {
        port = std::make_unique<GupsPort>(
            id, cfg, 4 * gib, queue,
            [this](Packet &&pkt) { submitted.push_back(pkt); }, 1);
    }

    /** Respond to the i-th submitted packet at the current time. */
    void
    respond(std::size_t i)
    {
        Packet pkt = submitted.at(i);
        pkt.tResponse = queue.now();
        port->onResponse(pkt);
    }
};

GupsPortConfig
portCfg(RequestMix mix, unsigned tag_depth = 64)
{
    GupsPortConfig cfg;
    cfg.mix = mix;
    cfg.requestSize = 128;
    cfg.tagPoolDepth = tag_depth;
    return cfg;
}

TEST(GupsPort, StopsAtTagPoolDepth)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 8));
    h.port->start();
    h.queue.runUntil(1 * tickMs);
    EXPECT_EQ(h.submitted.size(), 8u); // blocked on tags
    EXPECT_EQ(h.port->outstanding(), 8u);
    EXPECT_FALSE(h.port->idle());
}

TEST(GupsPort, ResponseFreesTagAndResumesIssuing)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 4));
    h.port->start();
    h.queue.runUntil(100 * tickUs);
    ASSERT_EQ(h.submitted.size(), 4u);
    h.respond(0);
    h.queue.runUntil(200 * tickUs);
    EXPECT_EQ(h.submitted.size(), 5u);
    EXPECT_EQ(h.port->stats().readsCompleted, 1u);
}

TEST(GupsPort, IssueRateIsOnePerCycle)
{
    GupsPortConfig cfg = portCfg(RequestMix::ReadOnly, 64);
    PortHarness h(cfg);
    h.port->start();
    // After 10 cycles it must have issued at most ceil(10)+1 and at
    // least floor(10) requests (one per 5333 ps).
    h.queue.runUntil(10 * 5333);
    EXPECT_GE(h.submitted.size(), 10u);
    EXPECT_LE(h.submitted.size(), 11u);
}

TEST(GupsPort, WriteOnlyUsesWriteCredits)
{
    GupsPortConfig cfg = portCfg(RequestMix::WriteOnly);
    cfg.writeCreditDepth = 6;
    PortHarness h(cfg);
    h.port->start();
    h.queue.runUntil(1 * tickMs);
    EXPECT_EQ(h.submitted.size(), 6u);
    for (const Packet &pkt : h.submitted)
        EXPECT_EQ(pkt.cmd, Command::Write);
    h.respond(0);
    h.queue.runUntil(2 * tickMs);
    EXPECT_EQ(h.submitted.size(), 7u);
}

TEST(GupsPort, ReadModifyWriteIssuesDependentWrite)
{
    PortHarness h(portCfg(RequestMix::ReadModifyWrite, 2));
    h.port->start();
    h.queue.runUntil(100 * tickUs);
    ASSERT_EQ(h.submitted.size(), 2u); // two reads outstanding
    const Addr read_addr = h.submitted[0].addr;
    h.respond(0);
    h.queue.runUntil(200 * tickUs);
    // The freed tag allows one more read AND the dependent write.
    ASSERT_GE(h.submitted.size(), 4u);
    bool found_write = false;
    for (std::size_t i = 2; i < h.submitted.size(); ++i) {
        if (h.submitted[i].cmd == Command::Write) {
            EXPECT_EQ(h.submitted[i].addr, read_addr);
            found_write = true;
        }
    }
    EXPECT_TRUE(found_write);
}

TEST(GupsPort, BudgetLimitsGeneratedOps)
{
    GupsPortConfig cfg = portCfg(RequestMix::ReadOnly);
    cfg.requestBudget = 5;
    PortHarness h(cfg);
    h.port->start();
    h.queue.runUntil(1 * tickMs);
    EXPECT_EQ(h.submitted.size(), 5u);
    EXPECT_TRUE(h.port->budgetExhausted());
    // Draining the responses leaves the port idle.
    for (std::size_t i = 0; i < 5; ++i)
        h.respond(i);
    h.queue.runUntil(2 * tickMs);
    EXPECT_EQ(h.submitted.size(), 5u);
    EXPECT_TRUE(h.port->idle());
}

TEST(GupsPort, MonitorsLatency)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 1));
    h.port->start();
    h.queue.runUntil(10 * tickUs); // one read outstanding
    ASSERT_EQ(h.submitted.size(), 1u);
    h.queue.runUntil(20 * tickUs);
    h.respond(0);
    const SampleStats &lat = h.port->stats().readLatencyNs;
    EXPECT_EQ(lat.count(), 1u);
    // Issued at t=0, answered at 20 us.
    EXPECT_NEAR(lat.mean(), 20000.0, 1.0);
}

TEST(GupsPort, RawByteAccounting)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 2));
    h.port->start();
    h.queue.runUntil(10 * tickUs);
    h.respond(0);
    h.respond(1);
    // Two 128 B reads: 2 x 160 raw bytes.
    EXPECT_EQ(h.port->stats().rawBytes, 320u);
    EXPECT_EQ(h.port->stats().readPayloadBytes, 256u);
}

TEST(GupsPort, ThermalFailureCounted)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 1));
    h.port->start();
    h.queue.runUntil(10 * tickUs);
    Packet pkt = h.submitted.at(0);
    pkt.thermalFailure = true;
    h.port->onResponse(pkt);
    EXPECT_EQ(h.port->stats().thermalFailures, 1u);
}

TEST(GupsPort, StopPreventsFurtherIssues)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 4));
    h.port->start();
    h.queue.runUntil(10 * tickUs);
    h.port->stop();
    const std::size_t n = h.submitted.size();
    h.respond(0);
    h.queue.runUntil(1 * tickMs);
    EXPECT_EQ(h.submitted.size(), n); // response did not restart it
}

TEST(GupsPort, PortsUseTheirAssignedLink)
{
    for (unsigned id : {0u, 4u, 5u, 8u}) {
        PortHarness h(portCfg(RequestMix::ReadOnly, 1), id);
        h.port->start();
        h.queue.runUntil(10 * tickUs);
        ASSERT_EQ(h.submitted.size(), 1u);
        EXPECT_EQ(h.submitted[0].link, id < 5 ? 0u : 1u);
        EXPECT_EQ(h.submitted[0].port, id);
    }
}

TEST(GupsPort, ResetStatsClearsMonitoring)
{
    PortHarness h(portCfg(RequestMix::ReadOnly, 2));
    h.port->start();
    h.queue.runUntil(10 * tickUs);
    h.respond(0);
    h.port->resetStats();
    EXPECT_EQ(h.port->stats().readsCompleted, 0u);
    EXPECT_EQ(h.port->stats().rawBytes, 0u);
    EXPECT_EQ(h.port->stats().readLatencyNs.count(), 0u);
}

} // namespace
} // namespace hmcsim
