/**
 * @file
 * Tests for the experiment key table (src/runner/experiment_keys.hh):
 * every key means the same thing as a flag, an axis value and a serve
 * request key (same configDigest); values are read strictly (decimal
 * only, no sign, no junk, must fit); each malformed or invalid value
 * is rejected with a one-line error that names its key, before any
 * model is built; and the fleet keys behave the same over FleetConfig.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "runner/config_digest.hh"
#include "runner/experiment_keys.hh"

namespace
{

using namespace hmcsim;

/** One non-default value per experiment key. */
const std::map<std::string, std::string> &
sampleValues()
{
    static const std::map<std::string, std::string> samples = {
        {"mix", "rw"},          {"size", "64"},
        {"vaults", "4"},        {"banks", "2"},
        {"ports", "3"},         {"mode", "linear"},
        {"backend", "ddr4"},    {"measure_us", "50"},
        {"warmup_us", "20"},    {"seed", "7"},
        {"maxblock", "64"},     {"mapping", "bank"},
        {"ber", "1e-12"},       {"refresh", "2"},
    };
    return samples;
}

std::string
flagSpelling(const std::string &name)
{
    std::string flag = "--" + name;
    for (char &c : flag)
        c = c == '_' ? '-' : c;
    return flag;
}

/** The config a one-experiment command runs: --seed is cfg.seed. */
std::uint64_t
resolvedDigest(ExperimentKeys keys)
{
    std::string error;
    EXPECT_TRUE(resolveExperimentKeys(keys, error)) << error;
    keys.cfg.seed = keys.seed;
    return configDigest(keys.cfg);
}

TEST(ExperimentKeys, FlagAxisAndServeFormsYieldTheSameDigest)
{
    const std::uint64_t defaultDigest = resolvedDigest(ExperimentKeys{});
    for (const ExperimentKey &key : experimentKeys()) {
        SCOPED_TRACE(key.name);
        const auto sample = sampleValues().find(key.name);
        ASSERT_NE(sample, sampleValues().end())
            << "every key needs a sample value here";
        const std::string &value = sample->second;
        std::vector<std::uint64_t> digests;
        std::string error;

        if (key.scope & FlagKey) {
            ExperimentKeys keys;
            ASSERT_EQ(findExperimentKey(flagSpelling(key.name), FlagKey),
                      &key);
            ASSERT_TRUE(setExperimentKey(key, keys, value, error)) << error;
            digests.push_back(resolvedDigest(keys));
        }
        if (key.scope & ServeKey) {
            ExperimentKeys keys;
            ASSERT_TRUE(setExperimentKeys(
                keys, std::string(key.name) + "=" + value, error))
                << error;
            digests.push_back(resolvedDigest(keys));
        }
        if (key.scope & AxisKey) {
            SweepAxes axes;
            ASSERT_TRUE(buildSweepAxes(ExperimentKeys{},
                                       {std::string(key.name) + "=" + value},
                                       axes, error))
                << error;
            // With a pattern axis the key is the only pattern; without
            // one the paper axis leads with the default 16 vaults.
            digests.push_back(configDigest(axes.expand().front()));
        }
        ASSERT_FALSE(digests.empty());
        for (const std::uint64_t d : digests) {
            EXPECT_EQ(d, digests.front());
            EXPECT_NE(d, defaultDigest) << "the sample changed nothing";
        }
    }
}

TEST(ExperimentKeys, EachFormHasItsOwnSpelling)
{
    std::string error;
    ExperimentKeys keys;
    const ExperimentKey *key = findExperimentKey("--measure-us", FlagKey);
    ASSERT_NE(key, nullptr);
    EXPECT_TRUE(setExperimentKey(*key, keys, "5", error));
    EXPECT_EQ(keys.cfg.measure, 5 * tickUs);
    EXPECT_EQ(findExperimentKey("--measure_us", FlagKey), nullptr);
    EXPECT_EQ(findExperimentKey("measure-us", ServeKey), nullptr);
    EXPECT_EQ(findExperimentKey("measure_us", FlagKey), nullptr);
    // No new spellings: mode has no flag (--linear is the CLI's), the
    // device knobs are flags only, warmup and seed are not axes.
    EXPECT_EQ(findExperimentKey("--mode", FlagKey), nullptr);
    EXPECT_EQ(findExperimentKey("maxblock", ServeKey), nullptr);
    EXPECT_EQ(findExperimentKey("seed", AxisKey), nullptr);
    EXPECT_EQ(findExperimentKey("warmup_us", AxisKey), nullptr);
}

TEST(ExperimentKeys, VaultsResetsBanksAndSeedStaysOutOfTheConfig)
{
    std::string error;
    ExperimentKeys keys;
    ASSERT_TRUE(setExperimentKeys(keys, "banks=2 vaults=8 seed=9", error));
    EXPECT_EQ(keys.banks, 0u);
    EXPECT_EQ(keys.seed, 9u);
    ASSERT_TRUE(resolveExperimentKeys(keys, error)) << error;
    EXPECT_EQ(keys.cfg.pattern.name, "8 vaults");
    EXPECT_EQ(keys.cfg.seed, 1u) << "the campaign seed is the caller's";
}

TEST(ExperimentKeys, StrictNumbers)
{
    unsigned u = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "0x10", "010",
                            "1e3", "4junk", "4294967296"}) {
        EXPECT_NE(parseKeyNumber(bad, u), nullptr) << '"' << bad << '"';
        EXPECT_EQ(u, 7u) << "a rejected value leaves the field alone";
    }
    EXPECT_EQ(parseKeyNumber("0", u), nullptr);
    EXPECT_EQ(u, 0u);
    EXPECT_EQ(parseKeyNumber("4294967295", u), nullptr);
    EXPECT_EQ(u, 4294967295u);

    double d = 0.5;
    for (const char *bad : {"", "-1", "+1", "inf", "nan", "1e999",
                            "0x1p3", "1.5x", " 1"})
        EXPECT_NE(parseKeyReal(bad, d), nullptr) << '"' << bad << '"';
    EXPECT_EQ(d, 0.5);
    EXPECT_EQ(parseKeyReal("1e6", d), nullptr);
    EXPECT_EQ(d, 1e6);
    EXPECT_EQ(parseKeyReal("1e-12", d), nullptr);
    EXPECT_EQ(d, 1e-12);
}

/** Set @p name=@p value in every form the key has, then resolve;
 *  expect each form to fail with an error naming the key. */
void
expectRejected(const std::string &name, const std::string &value)
{
    SCOPED_TRACE(name + "=" + value);
    const ExperimentKey *key = findExperimentKey(name, ServeKey);
    if (!key)
        key = findExperimentKey(flagSpelling(name), FlagKey);
    ASSERT_NE(key, nullptr);
    const auto fails = [&](bool set, ExperimentKeys keys,
                           std::string &error) {
        return !set || !resolveExperimentKeys(keys, error);
    };
    std::string error;
    if (key->scope & FlagKey) {
        ExperimentKeys keys;
        const bool set = setExperimentKey(*key, keys, value, error);
        EXPECT_TRUE(fails(set, keys, error));
        EXPECT_EQ(error.rfind(name, 0), 0u) << error;
    }
    if (key->scope & ServeKey) {
        error.clear();
        ExperimentKeys keys;
        const bool set = setExperimentKeys(keys, name + "=" + value, error);
        EXPECT_TRUE(fails(set, keys, error));
        EXPECT_EQ(error.rfind(name, 0), 0u) << error;
    }
    if (key->scope & AxisKey) {
        error.clear();
        SweepAxes axes;
        EXPECT_FALSE(buildSweepAxes(ExperimentKeys{}, {name + "=" + value},
                                    axes, error));
        EXPECT_EQ(error.rfind(name, 0), 0u) << error;
    }
    EXPECT_EQ(error.find('\n'), std::string::npos);
}

TEST(ExperimentKeys, RejectsEveryReproducedBadValueNamingTheKey)
{
    // Each of these once hung, died in a constructor or ran something
    // other than what was asked.
    expectRejected("size", "-64");
    expectRejected("size", "144");
    expectRejected("size", "18446744073709551552");
    expectRejected("size", "0x40");
    expectRejected("vaults", "3");
    expectRejected("vaults", "4junk");
    expectRejected("vaults", "32");
    expectRejected("banks", "3");
    expectRejected("banks", "32");
    expectRejected("ports", "0");
    expectRejected("ports", "10");
    expectRejected("mix", "xx");
    expectRejected("mode", "diagonal");
    expectRejected("backend", "flash");
    expectRejected("measure_us", "0");
    expectRejected("measure_us", "99999999999999999");
    expectRejected("warmup_us", "-1");
    expectRejected("seed", "010");
    expectRejected("maxblock", "48");
    expectRejected("maxblock", "65536");
    expectRejected("mapping", "diagonal");
    expectRejected("ber", "2");
    expectRejected("ber", "inf");
    expectRejected("refresh", "-1");
}

TEST(ExperimentKeys, ServeLinesRejectBadTokensAndUnknownKeys)
{
    std::string error;
    ExperimentKeys keys;
    EXPECT_FALSE(setExperimentKeys(keys, "size=64 vaults", error));
    EXPECT_NE(error.find("bad token 'vaults'"), std::string::npos);
    EXPECT_FALSE(setExperimentKeys(keys, "colour=red", error));
    EXPECT_NE(error.find("unknown key 'colour'"), std::string::npos);
    EXPECT_FALSE(setExperimentKeys(keys, "maxblock=64", error))
        << "a flag-only key is not a serve key";
    EXPECT_TRUE(setExperimentKeys(keys, "  \tsize=32   mix=wo \r", error));
    EXPECT_EQ(keys.cfg.requestSize, 32u);
    EXPECT_EQ(keys.cfg.mix, RequestMix::WriteOnly);
}

TEST(ExperimentKeys, AxesExpandInKeyTableOrder)
{
    // Vault patterns precede bank patterns whatever the spec order,
    // as the pattern axis has always been built.
    std::string error;
    SweepAxes axes;
    ASSERT_TRUE(buildSweepAxes(ExperimentKeys{},
                               {"banks=1", "size=64", "vaults=16,2",
                                "size=32"},
                               axes, error))
        << error;
    ASSERT_EQ(axes.patterns.size(), 3u);
    EXPECT_EQ(axes.patterns[0].name, "16 vaults");
    EXPECT_EQ(axes.patterns[1].name, "2 vaults");
    EXPECT_EQ(axes.patterns[2].name, "1 bank");
    EXPECT_EQ(axes.sizes, (std::vector<Bytes>{64, 32}));

    SweepAxes none;
    ASSERT_TRUE(buildSweepAxes(ExperimentKeys{}, {}, none, error));
    EXPECT_EQ(none.patterns.size(), 9u) << "the paper's pattern axis";

    for (const char *bad : {"size", "seed=1", "colour=red", "size="}) {
        SweepAxes axes2;
        EXPECT_FALSE(buildSweepAxes(ExperimentKeys{}, {bad}, axes2, error))
            << bad;
    }
}

TEST(FleetKeys, ParseResolveAndRejectNamingTheKey)
{
    std::string error;
    FleetKeys keys;
    ASSERT_TRUE(setFleetKeys(keys,
                             "nodes=3 requests=100 arrival=mmpp rate=1e6 "
                             "burst_rate=4e6 calm_us=5 burst_us=2 "
                             "router=hotspot hot_fraction=0.5 keys=9 "
                             "size=64 vaults=8 seed=11 jobs=2",
                             error))
        << error;
    ASSERT_TRUE(resolveFleetKeys(keys, error)) << error;
    EXPECT_EQ(keys.cfg.numNodes, 3u);
    EXPECT_EQ(keys.cfg.arrival.kind, ArrivalKind::Mmpp);
    EXPECT_EQ(keys.cfg.arrival.meanCalmTicks, 5 * tickUs);
    EXPECT_EQ(keys.cfg.router, RouterPolicy::HotSpot);
    EXPECT_EQ(keys.cfg.hotFraction, 0.5);
    EXPECT_EQ(keys.cfg.node.pattern.name, "8 vaults");

    const std::vector<std::pair<std::string, std::string>> bad = {
        {"rate=0", "rate"},          {"rate=-1", "rate"},
        {"rate=1e6x", "rate"},       {"nodes=0", "nodes"},
        {"vaults=3", "vaults"},      {"vaults=4junk", "vaults"},
        {"size=144", "size"},        {"hot_fraction=2", "hot_fraction"},
        {"arrival=bursty", "arrival"}, {"router=x", "router"},
        {"trace=1:", "trace"},       {"requests=-5", "requests"},
        {"arrival=diurnal", "trace"},
        {"arrival=mmpp calm_us=0", "calm_us"},
    };
    for (const auto &[args, key] : bad) {
        FleetKeys k;
        error.clear();
        EXPECT_FALSE(setFleetKeys(k, args, error) &&
                     resolveFleetKeys(k, error))
            << args;
        EXPECT_NE(error.find(key), std::string::npos)
            << args << ": " << error;
    }
}

} // namespace
