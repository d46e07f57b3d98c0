/**
 * @file
 * Wire codec for ExperimentConfig.
 *
 * The coordinator ships fully-resolved configurations (derived seed
 * included) to workers, so a worker never re-derives anything -- the
 * point it simulates is byte-for-byte the point the coordinator
 * expanded. The codec and configDigest() walk the same field list
 * (runner/config_fields.hh), so the wire carries exactly the fields
 * the digest hashes. Every frame also carries the coordinator-computed
 * digest, and the worker recomputes configDigest() over the decoded
 * struct and refuses the point on mismatch: a frame that lost or
 * altered a field in transit cannot pass that check, which is what
 * makes the distributed byte-identity guarantee enforceable rather
 * than hoped for.
 *
 * Format: "hmcsim-config v1" header line, then one "key value" line
 * per field in list order. Doubles are C99 hexfloats (%a); strings
 * are percent-escaped so embedded newlines cannot break framing.
 */

#ifndef HMCSIM_DIST_WIRE_HH
#define HMCSIM_DIST_WIRE_HH

#include <string>

#include "host/experiment.hh"

namespace hmcsim
{

/** Canonical text form of @p cfg (digest-complete, see file docs). */
std::string encodeExperimentConfig(const ExperimentConfig &cfg);

/**
 * Parse encodeExperimentConfig() output into @p out. Strict: fields
 * must appear in canonical order with a recognized header, each value
 * in its canonical form and range (runner/kv_codec.hh), and nothing
 * may follow the last field. Returns false on any malformed, missing
 * or extra field, leaving @p out unchanged.
 */
bool decodeExperimentConfig(const std::string &text,
                            ExperimentConfig &out);

} // namespace hmcsim

#endif // HMCSIM_DIST_WIRE_HH
