/**
 * @file
 * Content-addressed identity of an experiment configuration.
 *
 * The digest is an FNV-1a hash (sim/fnv1a.hh) over the config's one
 * field list (runner/config_fields.hh), the same list the wire codec
 * writes: each field enters in list order with an explicit width, so
 * the value depends only on the configured experiment -- never on
 * struct layout, padding bytes, or the order a caller happened to
 * assign fields in. Two configs that would simulate identically hash
 * identically; flipping any single field (timing constant, mask bit,
 * seed) changes the digest, and a field added to the list is hashed
 * without further edits.
 *
 * Uses: result-cache keys (runner/result_cache.hh), per-job seed
 * derivation (runner/sweep.hh), and the digest column of the
 * structured sinks, which lets downstream tooling join result rows
 * back to exact configurations.
 */

#ifndef HMCSIM_RUNNER_CONFIG_DIGEST_HH
#define HMCSIM_RUNNER_CONFIG_DIGEST_HH

#include <cstdint>

#include "host/experiment.hh"

namespace hmcsim
{

/**
 * Canonical FNV-1a digest of @p cfg.
 *
 * @param include_seed When false, the seed field is skipped; the
 *        sweep runner uses this form so a job's derived seed can be
 *        a function of "everything but the seed" without circularity.
 */
std::uint64_t configDigest(const ExperimentConfig &cfg,
                           bool include_seed = true);

/**
 * Canonical FNV-1a digest of everything that determines a config's
 * *warm-up phase*: every configDigest() field except the measurement
 * window, with the seed always included. Two configs with equal
 * warmupDigest() build bit-identical simulators and execute the same
 * event sequence through cfg.warmup, so one warmed simulator can be
 * forked to serve all of them (host/experiment.hh's runExperimentFrom
 * and the sweep runner's warm-start grouping). Distinct version tag;
 * never comparable with configDigest() values.
 */
std::uint64_t warmupDigest(const ExperimentConfig &cfg);

} // namespace hmcsim

#endif // HMCSIM_RUNNER_CONFIG_DIGEST_HH
