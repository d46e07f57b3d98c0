#include "runner/experiment_keys.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "gups/patterns.hh"
#include "mem/backend.hh"
#include "sim/text.hh"

namespace hmcsim
{

const char *
parseKeyReal(std::string_view text, double &out)
{
    // from_chars reads "1e6" and "0.25" but no '+', space or hex
    // prefix; it does read "inf" and "nan", which are not finite.
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || text[0] == '-' || ec != std::errc() || ptr != end ||
        !std::isfinite(v))
        return "is not a finite unsigned decimal number";
    out = v;
    return nullptr;
}

namespace
{

/** The enumerator 0..@p last whose @p name is @p text. */
template <typename E>
const char *
parseKeyName(std::string_view text, const char *(*name)(E), E last,
             E &out)
{
    for (unsigned v = 0; v <= static_cast<unsigned>(last); ++v) {
        if (text == name(static_cast<E>(v))) {
            out = static_cast<E>(v);
            return nullptr;
        }
    }
    return "is not a known name";
}

/** A window in whole microseconds that fits a Tick. */
const char *
parseKeyMicros(std::string_view text, Tick &out)
{
    std::uint64_t us = 0;
    if (const char *why = parseKeyNumber(text, us))
        return why;
    if (us > maxTick / tickUs)
        return "is out of range";
    out = us * tickUs;
    return nullptr;
}

const char *
parseKeyBackend(std::string_view text, BackendKind &out)
{
    return parseBackendKind(std::string(text), out) ? nullptr
                                                    : "is not a known name";
}

/** The --mapping names (mappingSchemeName is the display form). */
const char *
mappingKeyName(MappingScheme scheme)
{
    switch (scheme) {
      case MappingScheme::VaultFirst:
        return "vault";
      case MappingScheme::BankFirst:
        return "bank";
      case MappingScheme::ContiguousVault:
        return "contig";
    }
    return "?";
}

// A key's setter and axis hook reduce to the field they touch.
#define KEY_SET(parse, field, ...)                                         \
    [](auto &k, std::string_view v) {                                      \
        return parse(v __VA_OPT__(, ) __VA_ARGS__, k.field);               \
    }
#define KEY_AXIS(axis, field)                                              \
    [](SweepAxes &a, const ExperimentKeys &p) { a.axis.push_back(p.field); }

constexpr unsigned anywhere = FlagKey | ServeKey | AxisKey;

const ExperimentKey experimentTable[] = {
    {"mix", anywhere,
     KEY_SET(parseKeyName, cfg.mix, requestMixName, RequestMix::Atomic),
     KEY_AXIS(mixes, cfg.mix)},
    {"size", anywhere, KEY_SET(parseKeyNumber, cfg.requestSize),
     KEY_AXIS(sizes, cfg.requestSize)},
    {"vaults", anywhere,
     [](ExperimentKeys &k, std::string_view v) {
         k.banks = 0;
         return parseKeyNumber(v, k.vaults);
     },
     KEY_AXIS(patterns, cfg.pattern)},
    {"banks", anywhere, KEY_SET(parseKeyNumber, banks),
     KEY_AXIS(patterns, cfg.pattern)},
    {"ports", anywhere, KEY_SET(parseKeyNumber, cfg.numPorts),
     KEY_AXIS(ports, cfg.numPorts)},
    {"mode", ServeKey | AxisKey,
     KEY_SET(parseKeyName, cfg.mode, addressingModeName,
             AddressingMode::Linear),
     KEY_AXIS(modes, cfg.mode)},
    {"backend", anywhere,
     KEY_SET(parseKeyBackend, cfg.device.vault.backend.kind),
     KEY_AXIS(backends, cfg.device.vault.backend.kind)},
    {"measure_us", anywhere, KEY_SET(parseKeyMicros, cfg.measure),
     KEY_AXIS(measures, cfg.measure)},
    {"warmup_us", FlagKey | ServeKey, KEY_SET(parseKeyMicros, cfg.warmup),
     nullptr},
    {"seed", FlagKey | ServeKey, KEY_SET(parseKeyNumber, seed), nullptr},
    {"maxblock", FlagKey,
     [](ExperimentKeys &k, std::string_view v) {
         std::uint16_t bytes = 0;
         const char *why = parseKeyNumber(v, bytes);
         if (!why)
             k.cfg.device.maxBlock = static_cast<MaxBlockSize>(bytes);
         return why;
     },
     nullptr},
    {"mapping", FlagKey,
     KEY_SET(parseKeyName, cfg.device.mapping, mappingKeyName,
             MappingScheme::ContiguousVault),
     nullptr},
    {"ber", FlagKey, KEY_SET(parseKeyReal, cfg.controller.bitErrorRate),
     nullptr},
    {"refresh", FlagKey,
     [](ExperimentKeys &k, std::string_view v) {
         k.cfg.device.vault.refreshEnabled = true;
         return parseKeyReal(v, k.cfg.device.vault.refreshMultiplier);
     },
     nullptr},
};

struct FleetKey
{
    const char *name;
    const char *(*set)(FleetKeys &keys, std::string_view value);
};

const FleetKey fleetTable[] = {
    {"nodes", KEY_SET(parseKeyNumber, cfg.numNodes)},
    {"requests", KEY_SET(parseKeyNumber, cfg.requests)},
    {"arrival", KEY_SET(parseKeyName, cfg.arrival.kind, arrivalKindName,
                        ArrivalKind::Diurnal)},
    {"rate", KEY_SET(parseKeyReal, cfg.arrival.ratePerSec)},
    {"burst_rate", KEY_SET(parseKeyReal, cfg.arrival.burstRatePerSec)},
    {"calm_us", KEY_SET(parseKeyMicros, cfg.arrival.meanCalmTicks)},
    {"burst_us", KEY_SET(parseKeyMicros, cfg.arrival.meanBurstTicks)},
    {"trace",
     [](FleetKeys &k, std::string_view v) -> const char * {
         return parseDiurnalTrace(std::string(v), k.cfg.arrival.trace)
                    ? nullptr
                    : "is not a ticks:scale,... rate trace";
     }},
    {"router", KEY_SET(parseKeyName, cfg.router, routerPolicyName,
                       RouterPolicy::HotSpot)},
    {"hot_fraction", KEY_SET(parseKeyReal, cfg.hotFraction)},
    {"keys", KEY_SET(parseKeyNumber, cfg.numKeys)},
    {"size", KEY_SET(parseKeyNumber, cfg.node.requestSize)},
    {"vaults", KEY_SET(parseKeyNumber, vaults)},
    {"seed", KEY_SET(parseKeyNumber, cfg.seed)},
    {"jobs", KEY_SET(parseKeyNumber, cfg.jobs)},
};

#undef KEY_SET
#undef KEY_AXIS

template <typename Entry, typename Keys>
bool
setKey(const Entry &key, Keys &keys, std::string_view value,
       std::string &error)
{
    const char *why = key.set(keys, value);
    if (why)
        error = std::string(key.name) + " '" + std::string(value) + "' " +
                why;
    return why == nullptr;
}

/** Apply the "key=value" words of @p args, finding keys by @p find. */
template <typename Keys, typename Find>
bool
setServeKeys(Keys &keys, std::string_view args, Find find,
             std::string &error)
{
    for (std::string_view word = popWord(args); !word.empty();
         word = popWord(args)) {
        const std::size_t eq = word.find('=');
        const auto *key =
            eq == std::string_view::npos ? nullptr : find(word.substr(0, eq));
        if (!key) {
            error = eq == std::string_view::npos
                        ? "bad token '" + std::string(word) +
                              "' (expected key=value)"
                        : "unknown key '" + std::string(word.substr(0, eq)) +
                              "'";
            return false;
        }
        if (!setKey(*key, keys, word.substr(eq + 1), error))
            return false;
    }
    return true;
}

/** Check the vault or bank count, then build its pattern into @p out. */
bool
resolvePattern(const HmcDeviceConfig &device, unsigned vaults,
               unsigned banks, AccessPattern &out, std::string &error)
{
    const AddressMapper mapper(device.structure, device.maxBlock, 256,
                               device.mapping);
    const char *why = banks ? bankCountError(mapper, banks)
                            : vaultCountError(mapper, vaults);
    if (why) {
        error = (banks ? "banks " + std::to_string(banks)
                       : "vaults " + std::to_string(vaults)) +
                " " + why;
        return false;
    }
    out = banks ? bankPattern(mapper, banks) : vaultPattern(mapper, vaults);
    return true;
}

} // namespace

std::span<const ExperimentKey>
experimentKeys()
{
    return experimentTable;
}

const ExperimentKey *
findExperimentKey(std::string_view name, KeyScope scope)
{
    // The flag spelling is "--" + name with every '_' as '-'.
    if (scope == FlagKey && !name.starts_with("--"))
        return nullptr;
    if (scope == FlagKey)
        name.remove_prefix(2);
    for (const ExperimentKey &key : experimentTable) {
        std::string spelled = key.name;
        if (scope == FlagKey)
            std::replace(spelled.begin(), spelled.end(), '_', '-');
        if ((key.scope & scope) != 0 && name == spelled)
            return &key;
    }
    return nullptr;
}

bool
setExperimentKey(const ExperimentKey &key, ExperimentKeys &keys,
                 std::string_view value, std::string &error)
{
    return setKey(key, keys, value, error);
}

bool
setExperimentKeys(ExperimentKeys &keys, std::string_view args,
                  std::string &error)
{
    const auto find = [](std::string_view name) {
        return findExperimentKey(name, ServeKey);
    };
    return setServeKeys(keys, args, find, error);
}

bool
resolveExperimentKeys(ExperimentKeys &keys, std::string &error)
{
    return validateExperimentConfig(keys.cfg, error) &&
           resolvePattern(keys.cfg.device, keys.vaults, keys.banks,
                          keys.cfg.pattern, error);
}

bool
buildSweepAxes(const ExperimentKeys &base,
               const std::vector<std::string> &specs, SweepAxes &axes,
               std::string &error)
{
    ExperimentKeys resolved = base;
    if (!resolveExperimentKeys(resolved, error))
        return false;
    axes.base = resolved.cfg;

    // (key, values) per spec, expanded in table order below.
    std::vector<std::pair<const ExperimentKey *, std::string_view>> parsed;
    for (const std::string &spec : specs) {
        const std::size_t eq = spec.find('=');
        const std::string_view name = std::string_view(spec).substr(0, eq);
        const ExperimentKey *key = eq == std::string::npos
                                       ? nullptr
                                       : findExperimentKey(name, AxisKey);
        if (!key) {
            error = "bad axis '" + spec + "' (expected K=V1,V2,... with K";
            for (const ExperimentKey &k : experimentTable)
                if (k.scope & AxisKey)
                    error += std::string(" ") + k.name;
            error += ")";
            return false;
        }
        parsed.emplace_back(key, std::string_view(spec).substr(eq + 1));
    }
    std::stable_sort(parsed.begin(), parsed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first; // table order
                     });
    for (auto [key, values] : parsed) {
        for (bool more = true; more;) {
            const std::size_t comma = values.find(',');
            more = comma != std::string_view::npos;
            ExperimentKeys point = base;
            if (!setKey(*key, point, values.substr(0, comma), error) ||
                !resolveExperimentKeys(point, error))
                return false;
            key->addToAxis(axes, point);
            values.remove_prefix(more ? comma + 1 : values.size());
        }
    }
    if (axes.patterns.empty()) {
        const HmcDeviceConfig &d = axes.base.device;
        axes.patterns = paperPatternAxis(
            AddressMapper(d.structure, d.maxBlock, 256, d.mapping));
    }
    return true;
}

bool
setFleetKeys(FleetKeys &keys, std::string_view args, std::string &error)
{
    return setServeKeys(
        keys, args,
        [](std::string_view name) -> const FleetKey * {
            for (const FleetKey &key : fleetTable)
                if (name == key.name)
                    return &key;
            return nullptr;
        },
        error);
}

bool
resolveFleetKeys(FleetKeys &keys, std::string &error)
{
    // No traffic key changes the node's device, so its mapper is sound.
    return resolvePattern(keys.cfg.node.device, keys.vaults, 0,
                          keys.cfg.node.pattern, error) &&
           validateFleetConfig(keys.cfg, error);
}

} // namespace hmcsim
