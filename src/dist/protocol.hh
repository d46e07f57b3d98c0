/**
 * @file
 * Coordinator/worker protocol verbs (payloads of net.hh frames).
 *
 * Text, line-oriented, versioned at the hello. One sweep session:
 *
 *   worker -> coord   "hello v2 jobs <n>"
 *   coord  -> worker  "welcome v2 warm <0|1> points <total>"
 *   worker -> coord   "want <max>"                (worker is idle)
 *   coord  -> worker  "granted <k>"               (k may wait: the
 *                     coordinator parks the want until work exists)
 *                     ...then k frames, each:
 *                     "point <index> <digest-hex>\n<wire config>"
 *   worker -> coord   "result <index> <simulated>\n<result fields>"
 *                     (k times, then the next want)
 *   coord  -> worker  "drain"                     (no work will ever
 *                     come; worker exits)
 *
 * The worker recomputes configDigest() over every decoded point and
 * refuses a mismatch; the result body is serializeResultFields(), the
 * field set the store persists, so a result round-trips bit-identically
 * from worker to coordinator to sink. Lease reclaim is implicit:
 * a worker connection dying returns its outstanding indices to the
 * pending queue.
 */

#ifndef HMCSIM_DIST_PROTOCOL_HH
#define HMCSIM_DIST_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace hmcsim
{

/** Bump when any verb or payload layout changes incompatibly. */
constexpr const char *distProtocolVersion = "v2";

/** "hello v2 jobs <n>" */
std::string formatHello(unsigned jobs);
bool parseHello(const std::string &line, unsigned &jobs);

/** "welcome v2 warm <0|1> points <total>" */
std::string formatWelcome(bool warm_start, std::size_t total_points);
bool parseWelcome(const std::string &line, bool &warm_start,
                  std::size_t &total_points);

/** "want <max>" */
std::string formatWant(unsigned max_points);
bool parseWant(const std::string &line, unsigned &max_points);

/** "granted <k>" */
std::string formatGranted(std::size_t count);
bool parseGranted(const std::string &line, std::size_t &count);

/** "drain" */
std::string formatDrain();
bool isDrain(const std::string &line);

/** "point <index> <digest-hex>" + '\n' + wire-encoded config. */
std::string formatPoint(std::size_t index, std::uint64_t digest,
                        const std::string &config_blob);
bool parsePointHeader(const std::string &line, std::size_t &index,
                      std::uint64_t &digest);

/** "result <index> <simulated>" + '\n' + serialized result fields. */
std::string formatResult(std::size_t index, bool simulated,
                         const std::string &fields_blob);
bool parseResultHeader(const std::string &line, std::size_t &index,
                       bool &simulated);

/** Split a frame payload at its first newline: header line + body. */
void splitFrame(const std::string &payload, std::string &header,
                std::string &body);

} // namespace hmcsim

#endif // HMCSIM_DIST_PROTOCOL_HH
