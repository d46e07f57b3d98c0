/**
 * @file
 * Arrival-model library for the fleet traffic service
 * (docs/service.md): generators for the open-loop request streams a
 * datacenter frontend would offer a cube.
 *
 * Three models:
 *
 *  - Poisson: memoryless arrivals at a fixed mean rate, the classic
 *    open-system null model.
 *  - MMPP: a 2-state Markov-modulated Poisson process (calm/burst)
 *    with exponentially-distributed dwell times; bursts are what
 *    detach p999 from p50 at the same mean rate.
 *  - Diurnal: a piecewise-constant rate trace (scale factors over
 *    fixed durations, cycled), modeling the day curve of a real
 *    service; arrivals are drawn by exact inversion of the
 *    non-homogeneous Poisson integral, segment by segment.
 *
 * Determinism contract: a stream is a pure function of
 * (ArrivalConfig, stream seed). Seeds derive content-addressed via
 * splitMix64(seed ^ arrivalConfigDigest(cfg)) -- the same idiom as
 * runner/sweep.hh -- so any node's stream is reproducible in
 * isolation. All floating-point work uses IEEE basic operations and
 * std::fma only (no libm calls whose last bit varies across
 * platforms), so streams are bit-identical across compilers and
 * machines; tests/test_service.cc pins golden draws.
 */

#ifndef HMCSIM_SERVICE_ARRIVAL_HH
#define HMCSIM_SERVICE_ARRIVAL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Which arrival process generates the stream. */
enum class ArrivalKind
{
    Poisson,
    Mmpp,
    Diurnal,
};

const char *arrivalKindName(ArrivalKind kind);

/** One piecewise-constant segment of a diurnal rate trace. */
struct DiurnalSegment
{
    /** Segment length in ticks; must be non-zero. */
    Tick duration = 0;
    /** Rate multiplier applied to ArrivalConfig::ratePerSec. */
    double rateScale = 1.0;
};

/** Configuration of one arrival stream. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean arrival rate (requests/second of simulated time); the
     *  calm-state rate for MMPP and the trace baseline for Diurnal. */
    double ratePerSec = 2e6;
    /** MMPP burst-state arrival rate. */
    double burstRatePerSec = 8e6;
    /** MMPP mean dwell in the calm state (ticks). */
    Tick meanCalmTicks = 50 * tickUs;
    /** MMPP mean dwell in the burst state (ticks). */
    Tick meanBurstTicks = 10 * tickUs;
    /** Diurnal rate trace, cycled forever; must be non-empty with at
     *  least one positive rateScale for the Diurnal kind. */
    std::vector<DiurnalSegment> trace;
};

/** A generator of one arrival stream. */
class ArrivalModel
{
  public:
    virtual ~ArrivalModel() = default;

    /** Absolute tick of the next arrival; non-decreasing (multiple
     *  arrivals in one tick are legal at high rates). */
    virtual Tick next() = 0;
};

/**
 * Canonical FNV-1a digest of @p cfg (the same canonical-serialization
 * idiom as runner/config_digest.hh, with its own version tag).
 */
std::uint64_t arrivalConfigDigest(const ArrivalConfig &cfg);

/**
 * Content-addressed stream seed: splitMix64(seed ^
 * arrivalConfigDigest(cfg)), never 0. Two campaigns sharing a seed
 * but differing in any arrival parameter get decorrelated streams,
 * and the stream for a given (seed, config) pair can be regenerated
 * anywhere without the rest of the fleet.
 */
std::uint64_t deriveStreamSeed(std::uint64_t seed,
                               const ArrivalConfig &cfg);

/** Why @p cfg cannot drive an arrival stream (a rate that is not
 *  positive and finite, an MMPP without burst rate or dwell times, an
 *  unusable diurnal trace), or nullptr when it can. */
const char *arrivalConfigError(const ArrivalConfig &cfg);

/** Build the configured model over @p stream_seed (deriveStreamSeed
 *  output); fatal unless arrivalConfigError() accepts @p cfg. */
std::unique_ptr<ArrivalModel> makeArrivalModel(const ArrivalConfig &cfg,
                                               std::uint64_t stream_seed);

/**
 * Diurnal trace round-trip text form: comma-separated
 * "durationTicks:rateScale" segments with the scale in %a hexfloat,
 * so a formatted trace re-parses to bit-identical segments.
 */
std::string formatDiurnalTrace(const std::vector<DiurnalSegment> &trace);

/** Parse formatDiurnalTrace() output (also accepts plain decimal
 *  scales for hand-written traces); false on malformed input. */
bool parseDiurnalTrace(const std::string &text,
                       std::vector<DiurnalSegment> &out);

/**
 * Deterministic -ln(u) for u in (0, 1]: exponent/mantissa split plus
 * an atanh-series polynomial evaluated with std::fma, using only
 * correctly-rounded IEEE operations -- bit-identical on every
 * platform, unlike libm log(). Exposed for the tests; the arrival
 * models use it for every exponential draw.
 */
double negLogUnit(double u);

} // namespace hmcsim

#endif // HMCSIM_SERVICE_ARRIVAL_HH
