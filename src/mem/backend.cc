#include "mem/backend.hh"

#include <utility>

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

std::unique_ptr<MemoryBackend>
makeMemoryBackend(const BackendEnvironment &env,
                  const MemoryBackendConfig &cfg)
{
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
