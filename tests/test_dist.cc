/**
 * @file
 * Tests for the distributed sweep execution layer (src/dist/): wire
 * codec fidelity (digest-preserving round trips), frame plumbing, the
 * shared content-addressed result store (atomic writes, legacy-format
 * migration, claim arbitration incl. crashed- and expired-owner
 * steals), cross-process work division via fork, and the headline
 * contract -- a coordinator + workers session emits byte-identical
 * JSONL to a local serial sweep, including across a client that leases
 * points and dies without resulting them.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/net.hh"
#include "dist/protocol.hh"
#include "dist/store.hh"
#include "dist/wire.hh"
#include "dist/worker.hh"
#include "runner/config_digest.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"

namespace
{

using namespace hmcsim;

std::filesystem::path
freshDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/** A config with digest-visible fields pushed off their defaults, so
 *  a codec that drops or bends any of them cannot round-trip the
 *  digest. */
ExperimentConfig
wireTestConfig()
{
    ExperimentConfig cfg;
    cfg.pattern.name = "wire 100% tricky\nname";
    cfg.pattern.mask ^= 0x80;
    cfg.mix = RequestMix::Atomic;
    cfg.requestSize = 48;
    cfg.mode = AddressingMode::Linear;
    cfg.numPorts = 3;
    cfg.warmup = 7 * tickUs;
    cfg.measure = 33 * tickUs;
    cfg.seed = 0x123456789ABCDEFull;
    cfg.device.mapping = MappingScheme::BankFirst;
    cfg.device.vault.timings.tRcd += 1;
    cfg.device.vault.backend.kind = BackendKind::Nvm;
    cfg.device.vault.backend.nvmWriteLatency += 3;
    cfg.controller.bitErrorRate = 1e-12;
    return cfg;
}

TEST(WireCodec, RoundTripPreservesDigestAndSeed)
{
    const ExperimentConfig cfg = wireTestConfig();
    ExperimentConfig back;
    ASSERT_TRUE(decodeExperimentConfig(encodeExperimentConfig(cfg),
                                       back));
    // Digest equality is the completeness proof: every field the
    // canonical digest hashes survived the trip (the escaped pattern
    // name included), and the resolved seed rode along.
    EXPECT_EQ(configDigest(back), configDigest(cfg));
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.pattern.name, cfg.pattern.name);
}

TEST(WireCodec, RejectsTruncationAndGarbage)
{
    const std::string blob =
        encodeExperimentConfig(wireTestConfig());
    ExperimentConfig out;
    // Drop the last line: strict ordered parsing must fail, never
    // fill the tail with defaults.
    const std::size_t cut = blob.rfind('\n', blob.size() - 2);
    EXPECT_FALSE(
        decodeExperimentConfig(blob.substr(0, cut + 1), out));
    EXPECT_FALSE(decodeExperimentConfig("nonsense", out));
    EXPECT_FALSE(decodeExperimentConfig("", out));
}

/** @p blob with the value of its "key ..." line replaced. */
std::string
withField(const std::string &blob, const std::string &key,
          const std::string &value)
{
    const std::size_t at = blob.find("\n" + key + " ");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t start = at + 1 + key.size() + 1;
    const std::size_t end = blob.find('\n', start);
    return blob.substr(0, start) + value + blob.substr(end);
}

/** Each "key value" line of @p blob after its header line. */
std::vector<std::pair<std::string, std::string>>
wireLines(const std::string &blob)
{
    std::vector<std::pair<std::string, std::string>> lines;
    for (std::size_t at = blob.find('\n') + 1; at < blob.size();) {
        const std::size_t space = blob.find(' ', at);
        const std::size_t end = blob.find('\n', at);
        lines.emplace_back(blob.substr(at, space - at),
                           blob.substr(space + 1, end - space - 1));
        at = end + 1;
    }
    return lines;
}

/** Values unlike @p value that its line may decode: a neighbour,
 *  half or double of an integer, twice a hexfloat, a longer string. */
std::vector<std::string>
otherValues(const std::string &value)
{
    if (value.find_first_not_of("0123456789") == std::string::npos) {
        const std::uint64_t v = std::stoull(value);
        return {std::to_string(v + 1), std::to_string(v - 1),
                std::to_string(v / 2), std::to_string(v * 2)};
    }
    if (value.starts_with("0x") || value.starts_with("-0x")) {
        const double v = std::strtod(value.c_str(), nullptr);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a", v == 0.0 ? 0.5 : 2 * v);
        return {buf};
    }
    return {value + "x"};
}

TEST(ConfigDigest, EveryFieldChangesTheDigest)
{
    // Generated from the wire text, so a field added to the one field
    // list (runner/config_fields.hh) is covered here with no edit.
    const ExperimentConfig base;
    const std::string blob = encodeExperimentConfig(base);
    const auto lines = wireLines(blob);
    std::set<std::uint64_t> digests{configDigest(base)};
    for (const auto &[key, value] : lines) {
        ExperimentConfig cfg;
        bool decoded = false;
        for (const std::string &other : otherValues(value)) {
            decoded = other != value &&
                      decodeExperimentConfig(withField(blob, key, other), cfg);
            if (decoded)
                break;
        }
        ASSERT_TRUE(decoded) << key << " " << value;
        digests.insert(configDigest(cfg));
        // Only the seed line is outside the seedless digest, and only
        // the measure line outside the warm-up digest.
        EXPECT_EQ(configDigest(cfg, false) == configDigest(base, false),
                  key == "seed")
            << key;
        EXPECT_EQ(warmupDigest(cfg) == warmupDigest(base), key == "measure")
            << key;
    }
    // No variant collided with another or with the default.
    EXPECT_EQ(digests.size(), lines.size() + 1);
}

TEST(WireCodec, RejectsMalformedFields)
{
    const std::string blob = encodeExperimentConfig(wireTestConfig());
    ExperimentConfig out;
    // The unmodified blob decodes, so each rejection below is the
    // field's own fault.
    ASSERT_TRUE(decodeExperimentConfig(blob, out));
    const std::pair<const char *, const char *> cases[] = {
        {"numPorts", "9junk"},      // trailing junk after the digits
        {"numPorts", "-1"},         // a sign on an unsigned field
        {"numPorts", "4294967305"}, // 2^32 + 9: overflows unsigned
        {"numPorts", ""},           // no digits at all
        {"seed", "+7"},             // a plus sign
        {"seed", " 7"},             // a second separating space
        {"seed", "18446744073709551616"}, // 2^64
        {"mix", "99"},              // not a RequestMix
        {"device.maxBlock", "100"}, // not a MaxBlockSize
        {"vault.refreshEnabled", "2"}, // a bool is 0 or 1
        {"vault.refreshMultiplier", "+0x1p+0"},
        {"vault.refreshMultiplier", "0x1p+0x"},
        {"pattern.name", "a%+Fb"},  // escape digits must be hex
        {"pattern.name", "a%4"},    // escape cut short
    };
    for (const auto &[key, value] : cases)
        EXPECT_FALSE(
            decodeExperimentConfig(withField(blob, key, value), out))
            << key << " '" << value << "'";
    // Nothing may follow the last field, and it must end its line.
    EXPECT_FALSE(decodeExperimentConfig(blob + "extra 1\n", out));
    EXPECT_FALSE(
        decodeExperimentConfig(blob.substr(0, blob.size() - 1), out));
}

/** A wire value that decodes, yet no model can be built from, under
 *  the storage engine that reads it. */
struct UnbuildableField
{
    const char *key;
    const char *value;
    BackendKind kind = BackendKind::Ddr4;
};

/**
 * Values a constructor would fatal() on, divide by zero with, or
 * overflow simulated time or memory with. The DDR4 fields count
 * because that engine is the default here.
 */
const UnbuildableField kUnbuildableFields[] = {
    {"backend.ddrBusBytesPerSecond", "0x0p+0"},
    {"backend.ddrActivatesPerFaw", "0"},
    {"vault.timings.beatBytes", "0"},
    {"vault.timings.rowBytes", "0"},
    {"controller.txBytesPerSecondPerLink", "0x0p+0"},
    {"controller.numLinks", "0"},
    {"controller.rxBytesPerSecondPerLink", "-0x1p+0"},
    {"controller.numLinks", "4294967295"},
    {"backend.ddrTimings.beatBytes", "0"},
    {"backend.ddrTimings.rowBytes", "0"},
    {"vault.timings.tBeat", "18446744073709551615", BackendKind::HmcDram},
    {"controller.fpgaCyclePs", "18446744073709551615"},
    {"backend.ddrTimings.beatBytes", "18446744073709551615"},
    {"backend.nvmWriteQueueDepth", "4294967295", BackendKind::Nvm},
    {"controller.flitsToParallelCycles", "4294967295"},
    {"vault.timings.tRcd", "18446744073709551615", BackendKind::HmcDram},
    {"backend.ddrTimings.tRcd", "18446744073709551615"},
};

/** A config decoded from a frame with @p key set to @p value, over a
 *  @p kind-backed default. */
ExperimentConfig
unbuildableConfig(const char *key, const char *value, BackendKind kind)
{
    ExperimentConfig base;
    base.device.vault.backend.kind = kind;
    base.measure = 10 * tickUs;
    ExperimentConfig cfg;
    EXPECT_TRUE(decodeExperimentConfig(
        withField(encodeExperimentConfig(base), key, value), cfg))
        << key;
    return cfg;
}

TEST(WireCodec, DecodedValuesNoModelAcceptsAreRefusedByKey)
{
    for (const auto &[key, value, kind] : kUnbuildableFields) {
        std::string error;
        EXPECT_FALSE(validateExperimentConfig(
            unbuildableConfig(key, value, kind), error))
            << key << " " << value;
        // One line that starts with the wire key.
        EXPECT_EQ(error.rfind(std::string(key) + " ", 0), 0u) << error;
        EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    }
}

/** Whether @p error names wire @p key: by the key itself, or by the
 *  spelling validateExperimentConfig() shares with serve requests. */
bool
namesKey(const std::string &error, const std::string &key)
{
    static const std::pair<const char *, const char *> serveSpelling[] = {
        {"requestSize", "size "},
        {"numPorts", "ports "},
        {"warmup", "warmup_us "},
        {"measure", "measure_us "},
        {"device.maxBlock", "maxblock "},
        {"controller.bitErrorRate", "ber "},
        {"vault.refreshMultiplier", "refresh "},
        {"structure.", "structure: "},
    };
    if (error.find(key) != std::string::npos)
        return true;
    for (const auto &[wire, serve] : serveSpelling)
        if (key.starts_with(wire) && error.starts_with(serve))
            return true;
    return false;
}

/** The largest value the line holding @p value decodes with, tried
 *  from the widest integer down; a long name for a string line. */
std::vector<std::string>
largestValues(const std::string &value)
{
    if (value.find_first_not_of("0123456789") == std::string::npos) {
        std::vector<std::string> out = {"18446744073709551615",
                                        "4294967295", "65535"};
        for (int v = 255; v >= 0; --v)
            out.push_back(std::to_string(v));
        return out;
    }
    if (value.starts_with("0x") || value.starts_with("-0x"))
        return {"0x1.fffffffffffffp+1023"};
    return {std::string(4096, 'n')};
}

TEST(WireCodec, EveryLineAtItsLargestValueIsRefusedByKeyOrRuns)
{
    // Each wire line in turn at the largest value it decodes with,
    // under every storage engine: a model is built from it only if
    // validateExperimentConfig() accepts it, so it must either be
    // refused, naming the key, or simulate to the end.
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        ExperimentConfig base;
        base.device.vault.backend.kind = kind;
        base.warmup = 1 * tickUs;
        base.measure = 2 * tickUs;
        const std::string blob = encodeExperimentConfig(base);
        for (const auto &[key, value] : wireLines(blob)) {
            ExperimentConfig cfg;
            std::string largest;
            for (const std::string &v : largestValues(value)) {
                if (decodeExperimentConfig(withField(blob, key, v), cfg)) {
                    largest = v;
                    break;
                }
            }
            ASSERT_FALSE(largest.empty()) << key;
            SCOPED_TRACE(std::string(backendName(kind)) + " " + key +
                         " " + largest.substr(0, 32));
            std::string error;
            if (!validateExperimentConfig(cfg, error)) {
                EXPECT_TRUE(namesKey(error, key)) << error;
                continue;
            }
            EXPECT_EQ(runExperiment(cfg).requestSize, cfg.requestSize);
        }
    }
}

TEST(WireCodec, EncodingIsByteIdenticalToTheV1Format)
{
    // Recorded from the stream-based codec this one replaced: the
    // wire format is an interface between coordinator and workers of
    // different builds, so its bytes must never drift.
    const std::string expected =
        "hmcsim-config v1\n"
        "pattern.name wire 100%25 tricky%0Aname\n"
        "pattern.mask 128\n"
        "pattern.antiMask 0\n"
        "pattern.vaultSpan 16\n"
        "pattern.bankSpan 256\n"
        "mix 3\n"
        "requestSize 48\n"
        "mode 1\n"
        "numPorts 3\n"
        "warmup 7000000\n"
        "measure 33000000\n"
        "seed 81985529216486895\n"
        "structure.name HMC 1.1 (Gen2) 4GB\n"
        "structure.capacity 4294967296\n"
        "structure.numDramLayers 8\n"
        "structure.dramLayerGbits 4\n"
        "structure.numQuadrants 4\n"
        "structure.numVaults 16\n"
        "structure.partitionsPerLayer 16\n"
        "structure.banksPerPartition 2\n"
        "vault.numBanks 16\n"
        "vault.timings.tRcd 13001\n"
        "vault.timings.tCl 13000\n"
        "vault.timings.tRp 13000\n"
        "vault.timings.tRas 27000\n"
        "vault.timings.tWr 14000\n"
        "vault.timings.tCcd 5000\n"
        "vault.timings.tBeat 3200\n"
        "vault.timings.beatBytes 32\n"
        "vault.timings.rowBytes 256\n"
        "vault.timings.tRefi 7800000\n"
        "vault.timings.tRfc 160000\n"
        "vault.policy 0\n"
        "vault.controllerLatency 16000\n"
        "vault.commandBeats 1\n"
        "vault.atomicLatency 4000\n"
        "vault.refreshEnabled 0\n"
        "vault.refreshMultiplier 0x1p+0\n"
        "backend.kind 2\n"
        "backend.ddrTimings.tRcd 13750\n"
        "backend.ddrTimings.tCl 13750\n"
        "backend.ddrTimings.tRp 13750\n"
        "backend.ddrTimings.tRas 32000\n"
        "backend.ddrTimings.tWr 15000\n"
        "backend.ddrTimings.tCcd 5000\n"
        "backend.ddrTimings.tBeat 1670\n"
        "backend.ddrTimings.beatBytes 32\n"
        "backend.ddrTimings.rowBytes 1024\n"
        "backend.ddrTimings.tRefi 7800000\n"
        "backend.ddrTimings.tRfc 160000\n"
        "backend.ddrPolicy 1\n"
        "backend.ddrBusBytesPerSecond 0x1.1e1a3p+34\n"
        "backend.ddrTFaw 30000\n"
        "backend.ddrActivatesPerFaw 4\n"
        "backend.nvmReadLatency 120000\n"
        "backend.nvmWriteLatency 400003\n"
        "backend.nvmWriteAck 8000\n"
        "backend.nvmWriteQueueDepth 8\n"
        "device.maxBlock 128\n"
        "device.mapping 1\n"
        "device.quadrantLocalLatency 12000\n"
        "device.quadrantHopLatency 8000\n"
        "device.responsePathLatency 45000\n"
        "controller.fpgaCyclePs 5333\n"
        "controller.flitsToParallelCycles 10\n"
        "controller.arbiterCycles 4\n"
        "controller.seqFlowCrcCycles 10\n"
        "controller.serdesConvertCycles 10\n"
        "controller.txPropagation 85000\n"
        "controller.rxPropagation 40000\n"
        "controller.rxFixedCycles 30\n"
        "controller.rxPerFlit 5000\n"
        "controller.txBytesPerSecondPerLink 0x1.bf08ebp+32\n"
        "controller.rxBytesPerSecondPerLink 0x1.38eca48p+33\n"
        "controller.txPerPacketOverheadBytes 8\n"
        "controller.rxPerPacketOverheadBytes 24\n"
        "controller.numLinks 2\n"
        "controller.bitErrorRate 0x1.19799812dea11p-40\n"
        "controller.inputBufferFlits 0\n";
    EXPECT_EQ(encodeExperimentConfig(wireTestConfig()), expected);
}

// ---------------------------------------------------------------------
// Frames and protocol verbs
// ---------------------------------------------------------------------

TEST(Frames, ExtractIncrementallyFromBytePieces)
{
    const std::string wire =
        frameBytes("first payload") + frameBytes(std::string(1, '\0'));
    std::string buffer;
    std::vector<std::string> got;
    std::string payload;
    // Worst-case delivery: one byte at a time.
    for (const char byte : wire) {
        buffer.push_back(byte);
        while (extractFrame(buffer, payload))
            got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "first payload");
    EXPECT_EQ(got[1], std::string(1, '\0'));
    EXPECT_TRUE(buffer.empty());
}

TEST(Frames, SocketRoundTrip)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = "hello v1 jobs 4";
    EXPECT_TRUE(writeFrame(fds[0], payload));
    std::string back;
    EXPECT_TRUE(readFrame(fds[1], back));
    EXPECT_EQ(back, payload);
    ::close(fds[0]);
    // EOF is a clean false, not a hang.
    EXPECT_FALSE(readFrame(fds[1], back));
    ::close(fds[1]);
}

TEST(Protocol, VerbsRoundTrip)
{
    unsigned jobs = 0;
    EXPECT_TRUE(parseHello(formatHello(8), jobs));
    EXPECT_EQ(jobs, 8u);

    bool warm = false;
    std::size_t total = 0;
    EXPECT_TRUE(parseWelcome(formatWelcome(true, 12), warm, total));
    EXPECT_TRUE(warm);
    EXPECT_EQ(total, 12u);

    unsigned want = 0;
    EXPECT_TRUE(parseWant(formatWant(3), want));
    EXPECT_EQ(want, 3u);

    std::size_t count = 0;
    EXPECT_TRUE(parseGranted(formatGranted(5), count));
    EXPECT_EQ(count, 5u);

    EXPECT_TRUE(isDrain(formatDrain()));
    EXPECT_FALSE(isDrain(formatWant(1)));

    std::string header, body;
    splitFrame(formatPoint(7, 0xABCDEF0011223344ull, "cfg blob"),
               header, body);
    std::size_t index = 0;
    std::uint64_t digest = 0;
    EXPECT_TRUE(parsePointHeader(header, index, digest));
    EXPECT_EQ(index, 7u);
    EXPECT_EQ(digest, 0xABCDEF0011223344ull);
    EXPECT_EQ(body, "cfg blob");

    splitFrame(formatResult(9, true, "fields"), header, body);
    bool simulated = false;
    EXPECT_TRUE(parseResultHeader(header, index, simulated));
    EXPECT_EQ(index, 9u);
    EXPECT_TRUE(simulated);
    EXPECT_EQ(body, "fields");

    EXPECT_FALSE(parseHello("hello v999 jobs 1", jobs));
    // A v1 worker sends result bodies with the latency variance
    // fields: refused at hello, before any point is granted.
    EXPECT_FALSE(parseHello("hello v1 jobs 1", jobs));
    EXPECT_FALSE(parseWant("want", want));
}

TEST(Protocol, VerbsRejectSignsLeadingZerosAndTrailingJunk)
{
    // Every number a verb carries is plain decimal that fits its
    // field: "-1" once parsed as jobs = 4294967295.
    const char *const bad[] = {"-1", "+7", "007", "7x", "7 junk",
                               "99999999999999999999"};
    const std::string digest = " 00000000000000ff";
    const std::string version = distProtocolVersion;
    for (const char *n : bad) {
        const std::string v = n;
        unsigned u = 0;
        std::size_t z = 0;
        std::uint64_t d = 0;
        bool flag = false;
        EXPECT_FALSE(parseHello("hello " + version + " jobs " + v, u)) << v;
        EXPECT_FALSE(parseWant("want " + v, u)) << v;
        EXPECT_FALSE(parseGranted("granted " + v, z)) << v;
        EXPECT_FALSE(parsePointHeader("point " + v + digest, z, d)) << v;
        EXPECT_FALSE(parseResultHeader("result " + v + " 1", z, flag)) << v;
        EXPECT_FALSE(
            parseWelcome("welcome " + version + " warm 0 points " + v, flag, z))
            << v;
    }
    std::size_t index = 0;
    std::uint64_t d = 0;
    bool flag = false;
    // The digest is the 16 hex digits formatPoint writes, the flags
    // are 0 or 1, and nothing may follow the last field.
    for (const char *hex : {"ff", "-00000000000000ff", "0x000000000000ff",
                            "00000000000000fg", "00000000000000ff0"})
        EXPECT_FALSE(parsePointHeader(std::string("point 1 ") + hex, index, d))
            << hex;
    EXPECT_FALSE(parsePointHeader("point 1" + digest + " x", index, d));
    EXPECT_FALSE(parseResultHeader("result 1 2", index, flag));
    EXPECT_FALSE(parseResultHeader("result 1 01", index, flag));
    EXPECT_FALSE(parseResultHeader("result 1 1 x", index, flag));
    EXPECT_FALSE(
        parseWelcome("welcome " + version + " warm 2 points 1", flag, index));
    EXPECT_TRUE(parsePointHeader("point 0" + digest, index, d));
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(d, 0xffu);
}

// ---------------------------------------------------------------------
// Shared result store
// ---------------------------------------------------------------------

CachedResult
storedResult(double gbps)
{
    CachedResult value;
    value.result.patternName = "16 vaults";
    value.result.requestSize = 64;
    value.result.rawGBps = gbps;
    value.result.readLatencyP99Ns = 123.4567890123;
    value.statDigest = 0xFEEDFACE12345678ull;
    return value;
}

TEST(SharedStore, SaveLoadRoundTripsShardedAndAtomic)
{
    const std::filesystem::path dir = freshDir("hmcsim_test_store_rt");
    SharedResultStore store({dir.string(), 300});
    const std::uint64_t key = 0xAB00000000000042ull;

    EXPECT_FALSE(store.load(key).has_value());
    store.save(key, storedResult(31.5));

    const auto hit = store.load(key);
    ASSERT_TRUE(hit.has_value());
    const CachedResult expect = storedResult(31.5);
    EXPECT_EQ(std::memcmp(&hit->result.rawGBps,
                          &expect.result.rawGBps, sizeof(double)),
              0);
    EXPECT_EQ(hit->statDigest, 0xFEEDFACE12345678ull);

    // Sharded under the first two digest hex digits.
    EXPECT_NE(store.objectPath(key).find("/objects/ab/"),
              std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(store.objectPath(key)));

    // Atomic publish: no temp files survive a completed save.
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir))
        EXPECT_EQ(entry.path().string().find(".tmp."),
                  std::string::npos)
            << entry.path();

    const auto counters = store.counters();
    EXPECT_EQ(counters.saved, 1u);
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, LegacyAndCorruptEntriesAreCleanMisses)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_legacy");
    SharedResultStore store({dir.string(), 300});

    const auto plant = [&store](std::uint64_t key,
                                const std::string &text) {
        const std::filesystem::path path = store.objectPath(key);
        std::filesystem::create_directories(path.parent_path());
        std::ofstream(path) << text;
    };

    // Every pre-v5 cache generation: digests from older config
    // serializations must never poison a hit.
    plant(1, "hmcsim-result v1\npattern x\n");
    plant(2, "hmcsim-result v2\npattern x\n");
    plant(3, "hmcsim-result v3\npattern x\n");
    // A well-formed v4 object: its latency lines still carry the
    // variance fields (mean, M2) after count, sum, min and max.
    std::string v4_body = serializeResultFields(storedResult(9.0));
    for (const char *stats : {"readLatencyNs ", "writeLatencyNs "})
        v4_body.insert(v4_body.find('\n', v4_body.find(stats)),
                       " 0x0p+0 0x0p+0");
    plant(4, "hmcsim-result v4\n" + v4_body);
    // A truncated current object (crash mid-write without the atomic
    // rename) and outright garbage: skipped, counted, re-simulated.
    plant(5, std::string(SharedResultStore::formatHeader) +
                 "\npattern x\n");
    plant(6, "not a result at all\n");

    for (std::uint64_t key = 1; key <= 6; ++key)
        EXPECT_FALSE(store.load(key).has_value()) << key;

    const auto counters = store.counters();
    EXPECT_EQ(counters.legacy, 4u);
    EXPECT_EQ(counters.corrupt, 2u);
    EXPECT_EQ(counters.hits, 0u);

    // Through a ResultCache the same entries are plain misses: a sweep
    // re-simulates them, never aborts, never hits.
    ResultCache cache(store);
    for (std::uint64_t key = 1; key <= 6; ++key)
        EXPECT_FALSE(cache.lookup(key).has_value()) << key;
    EXPECT_EQ(cache.hits(), 0u);

    // A rewritten entry is served normally afterwards.
    store.save(3, storedResult(9.0));
    EXPECT_TRUE(store.load(3).has_value());
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, MalformedFieldsCountAsCorrupt)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_fields");
    SharedResultStore store({dir.string(), 300});
    store.save(1, storedResult(5.0));
    const std::string body = serializeResultFields(storedResult(5.0));
    CachedResult parsed;
    ASSERT_TRUE(parseResultFields(body, parsed));

    const auto plantWith = [&](std::uint64_t key, const std::string &from,
                               const std::string &to) {
        std::string text = body;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        EXPECT_FALSE(parseResultFields(text, parsed)) << to;
        const std::filesystem::path path = store.objectPath(key);
        std::filesystem::create_directories(path.parent_path());
        std::ofstream(path) << SharedResultStore::formatHeader << '\n'
                            << text;
    };
    plantWith(2, "statDigest 18369614218089748088\n",
              "statDigest 42trailing\n");
    plantWith(3, "mix 0\n", "mix 77\n");
    plantWith(4, "requestSize 64\n", "requestSize -64\n");

    EXPECT_TRUE(store.load(1).has_value());
    for (std::uint64_t key = 2; key <= 4; ++key)
        EXPECT_FALSE(store.load(key).has_value()) << key;
    const auto counters = store.counters();
    EXPECT_EQ(counters.corrupt, 3u);
    EXPECT_EQ(counters.legacy, 0u);
    EXPECT_EQ(counters.hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, ClaimsConflictAcrossInstancesAndRelease)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_claims");
    SharedResultStore a({dir.string(), 300});
    SharedResultStore b({dir.string(), 300});

    EXPECT_EQ(a.tryClaim(7), SharedResultStore::ClaimOutcome::Acquired);
    // flock conflicts across open file descriptions, so a second
    // store -- same or different process -- sees Busy.
    EXPECT_EQ(b.tryClaim(7), SharedResultStore::ClaimOutcome::Busy);

    a.releaseClaim(7);
    EXPECT_FALSE(std::filesystem::exists(a.claimPath(7)));
    EXPECT_EQ(b.tryClaim(7), SharedResultStore::ClaimOutcome::Acquired);
    b.releaseClaim(7);

    // save() releases the claim as part of publishing.
    EXPECT_EQ(a.tryClaim(8), SharedResultStore::ClaimOutcome::Acquired);
    a.save(8, storedResult(1.0));
    EXPECT_EQ(b.tryClaim(8), SharedResultStore::ClaimOutcome::Acquired);
    b.releaseClaim(8);
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, StealsClaimOfCrashedProcess)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_crash");
    {
        // Scope the parent's store so the fork sees no claims.
        SharedResultStore init({dir.string(), 300});
    }

    int claimedPipe[2];
    int diePipe[2];
    ASSERT_EQ(::pipe(claimedPipe), 0);
    ASSERT_EQ(::pipe(diePipe), 0);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: claim, tell the parent, wait for permission to
        // "crash" -- _exit() skips destructors, so the claim file
        // stays behind with its record while the kernel releases the
        // flock.
        SharedResultStore mine({dir.string(), 300});
        char byte = 'c';
        if (mine.tryClaim(21) !=
            SharedResultStore::ClaimOutcome::Acquired)
            byte = 'f';
        (void)!::write(claimedPipe[1], &byte, 1);
        (void)!::read(diePipe[0], &byte, 1);
        ::_exit(0);
    }

    char byte = 0;
    ASSERT_EQ(::read(claimedPipe[0], &byte, 1), 1);
    ASSERT_EQ(byte, 'c');

    SharedResultStore store({dir.string(), 300});
    // The child is alive and holds the flock: Busy.
    EXPECT_EQ(store.tryClaim(21),
              SharedResultStore::ClaimOutcome::Busy);

    ASSERT_EQ(::write(diePipe[1], &byte, 1), 1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    // Dead owner: the kernel released the flock; taking the lock over
    // the stale record counts as a steal.
    EXPECT_EQ(store.tryClaim(21),
              SharedResultStore::ClaimOutcome::Acquired);
    EXPECT_EQ(store.counters().claimsStolen, 1u);
    store.releaseClaim(21);

    ::close(claimedPipe[0]);
    ::close(claimedPipe[1]);
    ::close(diePipe[0]);
    ::close(diePipe[1]);
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, EvictsExpiredClaimOfWedgedOwner)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_expiry");
    // The wedged owner: lease already expired at claim time, flock
    // still held (the instance stays alive).
    SharedResultStore wedged({dir.string(), -1});
    ASSERT_EQ(wedged.tryClaim(33),
              SharedResultStore::ClaimOutcome::Acquired);

    SharedResultStore store({dir.string(), 300});
    EXPECT_EQ(store.tryClaim(33),
              SharedResultStore::ClaimOutcome::Acquired);
    EXPECT_EQ(store.counters().claimsStolen, 1u);
    store.releaseClaim(33);
    std::filesystem::remove_all(dir);
}

TEST(SharedStore, MalformedClaimRecordUnderLiveFlockIsBusy)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_badclaim");
    SharedResultStore store({dir.string(), 300});
    const std::string path = store.claimPath(44);

    // A live owner: this descriptor holds the flock, which conflicts
    // with the store's own open of the claim file.
    const int owner = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    ASSERT_GE(owner, 0);
    ASSERT_EQ(::flock(owner, LOCK_EX | LOCK_NB), 0);
    const auto stamp = [&path](const std::string &record) {
        std::ofstream(path, std::ios::trunc) << record;
    };

    // Every stamp is long expired, but none parses: an owner mid-write
    // or a junk record is honoured as live, never evicted.
    for (const std::string record :
         {"", "claim v2\npid 1\nexpires 12junk\n",
          "claim v2\npid 1\nexpires -12\n",
          "claim v2\nexpires 12\npid 1\n",
          "claim v2\npid 1\nexpires 12\ntrailing\n",
          "claim v1 pid 1 expires 12\n"}) {
        stamp(record);
        EXPECT_EQ(store.tryClaim(44),
                  SharedResultStore::ClaimOutcome::Busy)
            << record;
        EXPECT_TRUE(std::filesystem::exists(path)) << record;
    }
    EXPECT_EQ(store.counters().claimsStolen, 0u);

    // The same expired stamp, well formed, is evicted.
    stamp("claim v2\npid 1\nexpires 12\n");
    EXPECT_EQ(store.tryClaim(44),
              SharedResultStore::ClaimOutcome::Acquired);
    EXPECT_EQ(store.counters().claimsStolen, 1u);
    store.releaseClaim(44);
    ::close(owner);
    std::filesystem::remove_all(dir);
}

TEST(ClaimedStorage, WaitsOutLiveClaimantAndReturnsTheirResult)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_wait");
    SharedResultStore owner({dir.string(), 300});
    SharedResultStore other({dir.string(), 300});
    ASSERT_EQ(owner.tryClaim(55),
              SharedResultStore::ClaimOutcome::Acquired);

    std::optional<CachedResult> got;
    std::thread waiter([&other, &got] {
        ClaimedResultStorage storage(other, 1);
        got = storage.load(55);
    });

    // The waiter polls Busy until the owner publishes; then it must
    // return the owner's result instead of asking us to simulate.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    owner.save(55, storedResult(77.0));
    waiter.join();

    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->statDigest, storedResult(77.0).statDigest);
    std::filesystem::remove_all(dir);
}

TEST(ClaimedStorage, NulloptMeansCallerOwnsThePoint)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_own");
    SharedResultStore store({dir.string(), 300});
    SharedResultStore probe({dir.string(), 300});
    ClaimedResultStorage storage(store, 1);

    // Cold point: load() returns nullopt AND holds the claim.
    EXPECT_FALSE(storage.load(66).has_value());
    EXPECT_EQ(probe.tryClaim(66),
              SharedResultStore::ClaimOutcome::Busy);

    // save() publishes and releases.
    storage.save(66, storedResult(5.0));
    EXPECT_TRUE(probe.load(66).has_value());
    EXPECT_EQ(probe.tryClaim(66),
              SharedResultStore::ClaimOutcome::Acquired);
    probe.releaseClaim(66);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Cross-process division and the distributed determinism contract
// ---------------------------------------------------------------------

/** 12 points, short windows -- the same grid test_runner uses. */
SweepAxes
distAxes()
{
    static const AddressMapper mapper(HmcConfig::gen2_4GB(),
                                      MaxBlockSize::B128);
    SweepAxes axes;
    axes.patterns = {vaultPattern(mapper, 16), vaultPattern(mapper, 4),
                     vaultPattern(mapper, 1), bankPattern(mapper, 2)};
    axes.mixes = {RequestMix::ReadOnly};
    axes.sizes = {128, 64, 32};
    axes.base.warmup = 10 * tickUs;
    axes.base.measure = 50 * tickUs;
    return axes;
}

std::string
localJsonl(unsigned jobs)
{
    std::ostringstream out;
    JsonLinesSink sink(out);
    SweepOptions opts;
    opts.jobs = jobs;
    opts.sinks = {&sink};
    SweepRunner(opts).run(distAxes());
    return out.str();
}

TEST(TwoProcessStore, DividesAGridWithoutLossOrDuplication)
{
    const std::filesystem::path dir =
        freshDir("hmcsim_test_store_fork");
    {
        SharedResultStore init({dir.string(), 300});
    }

    const auto sweepOverStore = [&dir](unsigned jobs) {
        SharedResultStore store({dir.string(), 300});
        ClaimedResultStorage storage(store, 1);
        ResultCache cache(storage);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.cache = &cache;
        return SweepRunner(opts).run(distAxes());
    };

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child process: race the parent over the same 12 points.
        // Claims make the two processes partition the grid; each
        // point is simulated by exactly one of them.
        sweepOverStore(1);
        ::_exit(0);
    }
    const std::vector<SweepPointResult> mine = sweepOverStore(1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Both processes hold complete, identical result sets...
    ASSERT_EQ(mine.size(), 12u);
    const std::vector<SweepPointResult> reference =
        SweepRunner(SweepOptions{}).run(distAxes());
    for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i].digest, reference[i].digest);
        EXPECT_EQ(mine[i].statDigest, reference[i].statDigest);
    }

    // ...and the store holds exactly one object per point: nothing
    // lost, nothing duplicated, no claims or temp files left behind.
    std::size_t objects = 0;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             dir / "objects"))
        objects += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(objects, 12u);
    std::size_t claims = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir / "claims"))
        claims += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(claims, 0u);

    // A third, cold process is served entirely from the store.
    SharedResultStore store({dir.string(), 300});
    ClaimedResultStorage storage(store, 1);
    ResultCache cache(storage);
    SweepOptions warm;
    warm.jobs = 2;
    warm.cache = &cache;
    for (const SweepPointResult &point :
         SweepRunner(warm).run(distAxes()))
        EXPECT_TRUE(point.fromCache);
    std::filesystem::remove_all(dir);
}

TEST(Distributed, CoordinatorAndWorkersMatchLocalByteForByte)
{
    const std::filesystem::path sock =
        std::filesystem::temp_directory_path() / "hmcsim_dist_e2e.sock";
    std::filesystem::remove(sock);

    std::ostringstream out;
    JsonLinesSink sink(out);
    DistSweepOptions opts;
    opts.listenSpec = "unix:" + sock.string();
    opts.sweep.sinks = {&sink};

    DistSweepStats stats;
    std::thread coordinator([&opts, &stats] {
        runDistributedSweep(distAxes(), opts, &stats);
    });

    // Workers retry until the coordinator is listening.
    const auto workUntilDrained = [&sock] {
        WorkerOptions w;
        w.connectSpec = "unix:" + sock.string();
        w.jobs = 2;
        for (int tries = 0; tries < 300; ++tries) {
            if (runWorker(w) == 0)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    };
    std::thread workerA(workUntilDrained);
    std::thread workerB(workUntilDrained);

    coordinator.join();
    workerA.join();
    workerB.join();

    EXPECT_EQ(out.str(), localJsonl(1));
    EXPECT_EQ(stats.points, 12u);
    EXPECT_EQ(stats.simulated, 12u);
    EXPECT_GE(stats.workersSeen, 1u);
}

TEST(Distributed, WorkerRefusesAWellFormedPointWithAnInvalidConfig)
{
    // Frames that are well formed and whose digest matches, but whose
    // config no model accepts: a request size no packet carries, a
    // vault count the address mapper cannot split into fields, and
    // every value in kUnbuildableFields.
    ExperimentConfig badSize;
    badSize.requestSize = 144;
    ExperimentConfig badVaults;
    badVaults.device.structure.numVaults = 3;
    std::vector<ExperimentConfig> configs = {badSize, badVaults};
    for (const auto &[key, value, kind] : kUnbuildableFields)
        configs.push_back(unbuildableConfig(key, value, kind));
    for (ExperimentConfig cfg : configs) {
        cfg.measure = 10 * tickUs;
        const std::filesystem::path sock =
            std::filesystem::temp_directory_path() /
            "hmcsim_dist_invalid.sock";
        NetAddress addr;
        std::string error;
        ASSERT_TRUE(parseNetAddress("unix:" + sock.string(), addr, error));
        const int listenFd = netListen(addr, error);
        ASSERT_GE(listenFd, 0) << error;

        int workerRc = -1;
        std::thread worker([&sock, &workerRc] {
            WorkerOptions w;
            w.connectSpec = "unix:" + sock.string();
            w.jobs = 1;
            workerRc = runWorker(w);
        });

        // Play coordinator: grant the one point.
        const int fd = ::accept(listenFd, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        std::string payload;
        ASSERT_TRUE(readFrame(fd, payload)); // hello
        ASSERT_TRUE(writeFrame(fd, formatWelcome(false, 1)));
        ASSERT_TRUE(readFrame(fd, payload)); // want
        ASSERT_TRUE(writeFrame(fd, formatGranted(1)));
        ASSERT_TRUE(writeFrame(fd, formatPoint(0, configDigest(cfg),
                                               encodeExperimentConfig(cfg))));

        // The worker refuses the point as it refuses a digest
        // mismatch: it returns an error (this process is still here)
        // and hangs up without resulting anything.
        worker.join();
        EXPECT_EQ(workerRc, 1);
        EXPECT_FALSE(readFrame(fd, payload));
        ::close(fd);
        ::close(listenFd);
        std::filesystem::remove(sock);
    }
}

TEST(Distributed, ReclaimsLeasesOfAClientThatDiesSilently)
{
    const std::filesystem::path sock =
        std::filesystem::temp_directory_path() /
        "hmcsim_dist_flaky.sock";
    std::filesystem::remove(sock);

    std::ostringstream out;
    JsonLinesSink sink(out);
    DistSweepOptions opts;
    opts.listenSpec = "unix:" + sock.string();
    opts.sweep.sinks = {&sink};

    DistSweepStats stats;
    std::thread coordinator([&opts, &stats] {
        runDistributedSweep(distAxes(), opts, &stats);
    });

    // A flaky client: lease three points, read them, vanish without
    // resulting a single one.
    NetAddress addr;
    std::string error;
    ASSERT_TRUE(
        parseNetAddress("unix:" + sock.string(), addr, error));
    int fd = -1;
    for (int tries = 0; tries < 300 && fd < 0; ++tries) {
        fd = netConnect(addr, error);
        if (fd < 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeFrame(fd, formatHello(1)));
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    ASSERT_TRUE(writeFrame(fd, formatWant(3)));
    ASSERT_TRUE(readFrame(fd, payload));
    std::string header, body;
    splitFrame(payload, header, body);
    std::size_t granted = 0;
    ASSERT_TRUE(parseGranted(header, granted));
    ASSERT_EQ(granted, 3u);
    for (std::size_t i = 0; i < granted; ++i)
        ASSERT_TRUE(readFrame(fd, payload));
    ::close(fd); // Silent death, three leases outstanding.

    // An honest worker finishes the whole grid, reclaimed points
    // included.
    WorkerOptions w;
    w.connectSpec = "unix:" + sock.string();
    w.jobs = 2;
    std::thread worker([&w] {
        for (int tries = 0; tries < 300; ++tries) {
            if (runWorker(w) == 0)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });

    coordinator.join();
    worker.join();

    // Reclaim changed scheduling only -- never bytes.
    EXPECT_EQ(out.str(), localJsonl(1));
    EXPECT_EQ(stats.reclaimed, 3u);
    EXPECT_EQ(stats.simulated, 12u);
}

} // namespace
