// lint:file(persistence) -- wire-encoded configs must round-trip bit-exactly: %a hexfloat only.
#include "dist/wire.hh"

#include <utility>

#include "runner/config_fields.hh"

namespace hmcsim
{

constexpr const char *kHeader = "hmcsim-config v1";

std::string
encodeExperimentConfig(const ExperimentConfig &cfg)
{
    std::string text;
    text.reserve(2560); // An encoded config is ~2.3 kB.
    KvWriter out(text);
    out.line(kHeader);
    codeConfig(out, cfg);
    return text;
}

bool
decodeExperimentConfig(const std::string &text, ExperimentConfig &out)
{
    KvReader in(text);
    ExperimentConfig cfg;
    if (!in.line(kHeader) || !codeConfig(in, cfg) || !in.atEnd())
        return false;
    out = std::move(cfg);
    return true;
}

} // namespace hmcsim
