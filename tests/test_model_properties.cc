/**
 * @file
 * Parameterized property suites over the models: address-mapper
 * uniformity for every (max block, scheme) combination, thermal
 * closed-form vs transient agreement over a (cooling, power) grid,
 * and experiment determinism across request mixes.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hmc/address_mapper.hh"
#include "host/experiment.hh"
#include "sim/random.hh"
#include "thermal/thermal_model.hh"

namespace hmcsim
{
namespace
{

// ---- Mapper uniformity over (max block, scheme) -------------------------

struct MapperParam
{
    MaxBlockSize maxBlock;
    MappingScheme scheme;
};

class MapperUniformity : public ::testing::TestWithParam<MapperParam>
{
};

TEST_P(MapperUniformity, RandomAddressesSpreadEvenly)
{
    const MapperParam p = GetParam();
    const HmcConfig cfg = HmcConfig::gen2_4GB();
    const AddressMapper mapper(cfg, p.maxBlock, 256, p.scheme);
    Xoshiro256StarStar rng(33);

    std::map<unsigned, unsigned> vault_counts;
    const int n = 64000;
    for (int i = 0; i < n; ++i) {
        const DecodedAddress d = mapper.decode(
            rng.nextBounded(cfg.capacity / 16) * 16);
        ++vault_counts[d.vault];
    }
    ASSERT_EQ(vault_counts.size(), 16u);
    // Chi-square-lite: every vault within 10 % of the fair share.
    for (const auto &[vault, count] : vault_counts) {
        EXPECT_NEAR(static_cast<double>(count), n / 16.0, n / 16.0 * 0.1)
            << "vault " << vault;
    }
}

TEST_P(MapperUniformity, DecodeIsAFunctionOfImplementedBits)
{
    const MapperParam p = GetParam();
    const HmcConfig cfg = HmcConfig::gen2_4GB();
    const AddressMapper mapper(cfg, p.maxBlock, 256, p.scheme);
    Xoshiro256StarStar rng(44);
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = rng.nextBounded(cfg.capacity);
        const DecodedAddress a = mapper.decode(addr);
        const DecodedAddress b = mapper.decode(addr | (Addr(0x3) << 32));
        ASSERT_EQ(a.vault, b.vault);
        ASSERT_EQ(a.bank, b.bank);
        ASSERT_EQ(a.row, b.row);
        ASSERT_EQ(a.column, b.column);
    }
}

TEST_P(MapperUniformity, BankLocalAddressesNeverExceedBankSize)
{
    const MapperParam p = GetParam();
    const HmcConfig cfg = HmcConfig::gen2_4GB();
    const AddressMapper mapper(cfg, p.maxBlock, 256, p.scheme);
    const Bytes rows_per_bank = cfg.bankBytes() / 256;
    Xoshiro256StarStar rng(55);
    for (int i = 0; i < 3000; ++i) {
        const DecodedAddress d =
            mapper.decode(rng.nextBounded(cfg.capacity));
        ASSERT_LT(d.row, rows_per_bank);
        ASSERT_LT(d.column, 256u);
    }
}

std::string
mapperName(const ::testing::TestParamInfo<MapperParam> &info)
{
    std::string name = "B";
    name += std::to_string(static_cast<unsigned>(info.param.maxBlock));
    switch (info.param.scheme) {
      case MappingScheme::VaultFirst:
        name += "_vaultfirst";
        break;
      case MappingScheme::BankFirst:
        name += "_bankfirst";
        break;
      case MappingScheme::ContiguousVault:
        name += "_contig";
        break;
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MapperUniformity,
    ::testing::Values(
        MapperParam{MaxBlockSize::B16, MappingScheme::VaultFirst},
        MapperParam{MaxBlockSize::B32, MappingScheme::VaultFirst},
        MapperParam{MaxBlockSize::B64, MappingScheme::VaultFirst},
        MapperParam{MaxBlockSize::B128, MappingScheme::VaultFirst},
        MapperParam{MaxBlockSize::B128, MappingScheme::BankFirst},
        MapperParam{MaxBlockSize::B32, MappingScheme::BankFirst},
        MapperParam{MaxBlockSize::B128, MappingScheme::ContiguousVault},
        MapperParam{MaxBlockSize::B16, MappingScheme::ContiguousVault}),
    mapperName);

// ---- Thermal closed form vs transient over a grid --------------------------

struct ThermalParam
{
    unsigned cooling;
    double powerW;
};

class ThermalGrid : public ::testing::TestWithParam<ThermalParam>
{
};

TEST_P(ThermalGrid, TransientSettlesOnTheClosedForm)
{
    const ThermalParam p = GetParam();
    const ThermalModel model(coolingConfig(p.cooling));
    const double target =
        model.steadyState(p.powerW, RequestMix::ReadOnly).temperatureC;
    double temp = coolingConfig(p.cooling).idleTemperatureC;
    for (int s = 0; s < 400; ++s)
        temp = model.step(temp, p.powerW, 1.0);
    EXPECT_NEAR(temp, target, 0.05)
        << "Cfg" << p.cooling << " @ " << p.powerW << " W";
}

std::string
thermalName(const ::testing::TestParamInfo<ThermalParam> &info)
{
    return "Cfg" + std::to_string(info.param.cooling) + "_" +
           std::to_string(static_cast<int>(info.param.powerW * 10)) +
           "dW";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThermalGrid,
    ::testing::Values(ThermalParam{1, 0.5}, ThermalParam{1, 4.0},
                      ThermalParam{2, 2.0}, ThermalParam{2, 7.0},
                      ThermalParam{3, 1.0}, ThermalParam{3, 6.0},
                      ThermalParam{4, 0.5}, ThermalParam{4, 3.0}),
    thermalName);

// ---- Experiment determinism across mixes -----------------------------------

class MixDeterminism : public ::testing::TestWithParam<RequestMix>
{
};

TEST_P(MixDeterminism, IdenticalSeedsIdenticalResults)
{
    ExperimentConfig cfg;
    cfg.mix = GetParam();
    cfg.measure = 150 * tickUs;
    cfg.seed = 777;
    const MeasurementResult a = runExperiment(cfg);
    const MeasurementResult b = runExperiment(cfg);
    EXPECT_DOUBLE_EQ(a.rawGBps, b.rawGBps);
    EXPECT_DOUBLE_EQ(a.mrps, b.mrps);
    EXPECT_DOUBLE_EQ(a.readLatencyNs.mean(), b.readLatencyNs.mean());
    EXPECT_DOUBLE_EQ(a.writeLatencyNs.mean(), b.writeLatencyNs.mean());
}

TEST_P(MixDeterminism, DifferentSeedsSameSteadyState)
{
    // Bandwidth is a property of the configuration, not the seed: two
    // different random streams must land on the same steady state.
    ExperimentConfig a_cfg;
    a_cfg.mix = GetParam();
    a_cfg.measure = 300 * tickUs;
    a_cfg.seed = 1;
    ExperimentConfig b_cfg = a_cfg;
    b_cfg.seed = 999;
    const double a = runExperiment(a_cfg).rawGBps;
    const double b = runExperiment(b_cfg).rawGBps;
    EXPECT_NEAR(a, b, a * 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, MixDeterminism,
    ::testing::Values(RequestMix::ReadOnly, RequestMix::WriteOnly,
                      RequestMix::ReadModifyWrite, RequestMix::Atomic),
    [](const ::testing::TestParamInfo<RequestMix> &info) {
        return std::string(requestMixName(info.param));
    });

} // namespace
} // namespace hmcsim
