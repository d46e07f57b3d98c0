/**
 * @file
 * The experiment key table: one entry per knob of the configuration
 * space the paper sweeps, shared by every way a user spells one:
 *
 *     run/sweep/trace/selfcheck flag   --measure-us 50
 *     sweep axis value                 --axis measure_us=50,100
 *     serve `sweep` request key        measure_us=50
 *
 * Serve `traffic` keys use the same mechanism over FleetConfig.
 * Values are read with KvReader's strictness, through std::from_chars:
 * integers are plain decimal (no sign, no leading zero, no trailing
 * junk, and they must fit the field); reals ("1e6") must be consumed
 * whole, unsigned and finite; enums match the enum's own name
 * function (requestMixName, ...), so each name list is spelled once.
 *
 * Setting a key only parses its value. resolveExperimentKeys() and
 * resolveFleetKeys() then validate the whole config and check the
 * vault/bank count before the access pattern is built, so nothing
 * malformed reaches a model constructor. Every error is one line that
 * starts with the key's name.
 */

#ifndef HMCSIM_RUNNER_EXPERIMENT_KEYS_HH
#define HMCSIM_RUNNER_EXPERIMENT_KEYS_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "host/experiment.hh"
#include "runner/sweep.hh"
#include "service/fleet.hh"
#include "sim/text.hh"

namespace hmcsim
{

/** Where a key may be spelled: --name-with-dashes VALUE,
 *  name=VALUE on a serve line, or --axis name=V1,V2,... */
enum KeyScope : unsigned
{
    FlagKey = 1,
    ServeKey = 2,
    AxisKey = 4,
};

/** Parse all of @p text as a finite, unsigned decimal real ("1e6",
 *  "0.25"); nullptr on success, else why not. */
const char *parseKeyReal(std::string_view text, double &out);

/**
 * What the experiment keys set. vaults/banks resolve into cfg.pattern
 * (non-zero banks wins; setting vaults clears it). seed is cfg.seed
 * under run, selfcheck and trace, and the campaign seed
 * (SweepOptions::sweepSeed) under sweep and serve.
 */
struct ExperimentKeys
{
    ExperimentConfig cfg;
    unsigned vaults = 16;
    unsigned banks = 0;
    std::uint64_t seed = 1;
};

/** What serve `traffic` keys set; vaults resolves into
 *  cfg.node.pattern. */
struct FleetKeys
{
    FleetConfig cfg;
    unsigned vaults = 16;
};

/** One key: its serve/axis spelling (the flag is "--" + name with
 *  '_' as '-'), KeyScope bits, a setter returning nullptr or why the
 *  value is bad, and, for axis keys, the hook that adds a resolved
 *  point's value to an axis. */
struct ExperimentKey
{
    const char *name;
    unsigned scope;
    const char *(*set)(ExperimentKeys &keys, std::string_view value);
    void (*addToAxis)(SweepAxes &axes, const ExperimentKeys &point);
};

/** Every experiment key, in canonical (axis expansion) order. */
std::span<const ExperimentKey> experimentKeys();

/** The key spelled @p name in @p scope ("--size" for FlagKey, "size"
 *  otherwise), or nullptr. */
const ExperimentKey *findExperimentKey(std::string_view name,
                                       KeyScope scope);

/** Set @p key from @p value; false with a one-line @p error. */
bool setExperimentKey(const ExperimentKey &key, ExperimentKeys &keys,
                      std::string_view value, std::string &error);

/** Apply the "key=value" words of a serve `sweep` request (@p args,
 *  after the verb); false with @p error at the first bad word. */
bool setExperimentKeys(ExperimentKeys &keys, std::string_view args,
                       std::string &error);

/** Validate keys.cfg (validateExperimentConfig), check the vault or
 *  bank count, then build keys.cfg.pattern. Leaves cfg.seed alone. */
bool resolveExperimentKeys(ExperimentKeys &keys, std::string &error);

/**
 * Build @p axes over @p base from "--axis" specs ("size=128,32"). Each
 * value is set on a copy of @p base and resolved, exactly as its flag
 * would be. Specs expand in table order, so vault patterns precede
 * bank patterns; without a pattern axis, patterns are the paper's.
 */
bool buildSweepAxes(const ExperimentKeys &base,
                    const std::vector<std::string> &specs,
                    SweepAxes &axes, std::string &error);

/** setExperimentKeys() for a serve `traffic` request. */
bool setFleetKeys(FleetKeys &keys, std::string_view args,
                  std::string &error);

/** Check the vault count, build keys.cfg.node.pattern, then
 *  validateFleetConfig. */
bool resolveFleetKeys(FleetKeys &keys, std::string &error);

} // namespace hmcsim

#endif // HMCSIM_RUNNER_EXPERIMENT_KEYS_HH
