#include "mem/backend.hh"

#include <utility>

#include "link/link.hh"
#include "mem/ddr4_backend.hh"
#include "mem/hmc_dram_backend.hh"
#include "mem/nvm_backend.hh"
#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

/** Every accepted name; a kind's first entry is its backendName(). */
constexpr std::pair<const char *, BackendKind> backendNames[] = {
    {"hmc", BackendKind::HmcDram}, {"ddr4", BackendKind::Ddr4},
    {"nvm", BackendKind::Nvm},     {"dram", BackendKind::HmcDram},
    {"hmc-dram", BackendKind::HmcDram}, {"ddr", BackendKind::Ddr4},
    {"pcm", BackendKind::Nvm},
};

} // namespace

const char *
backendName(BackendKind kind)
{
    for (const auto &[name, named] : backendNames)
        if (named == kind)
            return name;
    return "unknown";
}

bool
parseBackendKind(const std::string &name, BackendKind &out)
{
    for (const auto &[spelled, kind] : backendNames) {
        if (name == spelled) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
backendConfigError(const DramTimings &vault_timings,
                   const MemoryBackendConfig &cfg)
{
    if (vault_timings.beatBytes == 0)
        return "vault.timings.beatBytes must be at least 1";
    if (vault_timings.rowBytes == 0)
        return "vault.timings.rowBytes must be at least 1";
    // Bank::access() multiplies tBeat by a 32-bit beat count.
    if (vault_timings.tBeat >= (Tick{1} << 32))
        return "vault.timings.tBeat must be below 2^32 ps";
    // Every bank allocates its write-queue ring up front: 8 KiB at this
    // bound, 512 MiB over the largest device's 2^16 banks.
    if (cfg.kind == BackendKind::Nvm && cfg.nvmWriteQueueDepth > 1024)
        return "backend.nvmWriteQueueDepth must be at most 1024";
    if (cfg.kind != BackendKind::Ddr4)
        return nullptr;
    if (cfg.ddrTimings.beatBytes == 0)
        return "backend.ddrTimings.beatBytes must be at least 1";
    // The vault bus sizes a transfer as a 32-bit beat count times
    // beatBytes.
    if (cfg.ddrTimings.beatBytes >= (Bytes{1} << 32))
        return "backend.ddrTimings.beatBytes must be below 2^32";
    if (cfg.ddrTimings.rowBytes == 0)
        return "backend.ddrTimings.rowBytes must be at least 1";
    if (cfg.ddrTimings.tBeat >= (Tick{1} << 32))
        return "backend.ddrTimings.tBeat must be below 2^32 ps";
    if (!validRate(cfg.ddrBusBytesPerSecond))
        return "backend.ddrBusBytesPerSecond must be positive";
    if (cfg.ddrActivatesPerFaw == 0)
        return "backend.ddrActivatesPerFaw must be at least 1";
    return nullptr;
}

std::unique_ptr<MemoryBackend>
makeMemoryBackend(const BackendEnvironment &env,
                  const MemoryBackendConfig &cfg)
{
    if (const char *why = backendConfigError(env.timings, cfg))
        fatal("%s", why);
    switch (cfg.kind) {
      case BackendKind::HmcDram:
        return std::make_unique<HmcDramBackend>(env);
      case BackendKind::Ddr4:
        return std::make_unique<Ddr4Backend>(env, cfg);
      case BackendKind::Nvm:
        return std::make_unique<NvmBackend>(env, cfg);
    }
    fatal("unknown memory backend kind %u",
          static_cast<unsigned>(cfg.kind));
    return nullptr;
}

} // namespace hmcsim
