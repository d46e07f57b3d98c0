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

namespace
{

/** The DramTimings tick fields other than tBeat (which has its own,
 *  tighter bound), with the error naming each under its two wire
 *  prefixes. */
struct TickField
{
    Tick DramTimings::*member;
    const char *vaultError;
    const char *ddrError;
};

constexpr TickField tickFields[] = {
    {&DramTimings::tRcd, "vault.timings.tRcd must be below 2^40 ps",
     "backend.ddrTimings.tRcd must be below 2^40 ps"},
    {&DramTimings::tCl, "vault.timings.tCl must be below 2^40 ps",
     "backend.ddrTimings.tCl must be below 2^40 ps"},
    {&DramTimings::tRp, "vault.timings.tRp must be below 2^40 ps",
     "backend.ddrTimings.tRp must be below 2^40 ps"},
    {&DramTimings::tRas, "vault.timings.tRas must be below 2^40 ps",
     "backend.ddrTimings.tRas must be below 2^40 ps"},
    {&DramTimings::tWr, "vault.timings.tWr must be below 2^40 ps",
     "backend.ddrTimings.tWr must be below 2^40 ps"},
    {&DramTimings::tCcd, "vault.timings.tCcd must be below 2^40 ps",
     "backend.ddrTimings.tCcd must be below 2^40 ps"},
    {&DramTimings::tRefi, "vault.timings.tRefi must be below 2^40 ps",
     "backend.ddrTimings.tRefi must be below 2^40 ps"},
    {&DramTimings::tRfc, "vault.timings.tRfc must be below 2^40 ps",
     "backend.ddrTimings.tRfc must be below 2^40 ps"},
};

/** The first tick field of @p t at 2^40 ps (~1.1 s) or more, as its
 *  error under the vault (@p ddr false) or DDR4 prefix. An access or a
 *  refresh adds a few of them, and a transfer of at most 2^8 beats
 *  below 2^32 ps each, to a tick: the sum stays below 2^44 ps, so it
 *  cannot wrap a tick below 2^63 ps. */
const char *
tickFieldError(const DramTimings &t, bool ddr)
{
    for (const TickField &f : tickFields)
        if (t.*f.member >= (Tick{1} << 40))
            return ddr ? f.ddrError : f.vaultError;
    return nullptr;
}

} // namespace

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
    if (const char *why = tickFieldError(vault_timings, false))
        return why;
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
    if (const char *why = tickFieldError(cfg.ddrTimings, true))
        return why;
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
