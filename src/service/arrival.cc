// lint:file(persistence) -- diurnal traces round-trip through text: %a hexfloat only, enforced by hmcsim-lint.
#include "service/arrival.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "sim/fnv1a.hh"
#include "sim/logging.hh"
#include "sim/text.hh"

namespace hmcsim
{

namespace
{

/** Uniform draw in (0, 1]: never 0, so negLogUnit is always finite. */
double
unitUniform(Xoshiro256StarStar &rng)
{
    return static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
}

constexpr double ticksPerSecond = static_cast<double>(tickS);

/** Exponential dwell/gap in ticks with the given mean (ticks). */
double
expTicks(Xoshiro256StarStar &rng, double mean_ticks)
{
    return negLogUnit(unitUniform(rng)) * mean_ticks;
}

class PoissonArrivals final : public ArrivalModel
{
  public:
    PoissonArrivals(double rate_per_sec, std::uint64_t seed)
        : rng(seed), meanGapTicks(ticksPerSecond / rate_per_sec)
    {
    }

    Tick
    next() override
    {
        // fma keeps the rounding-offset add out of the compiler's
        // contraction reach: one correctly-rounded operation on every
        // platform (see negLogUnit).
        const double gap = std::fma(negLogUnit(unitUniform(rng)),
                                    meanGapTicks, 0.5);
        t += static_cast<Tick>(gap);
        return t;
    }

  private:
    Xoshiro256StarStar rng;
    double meanGapTicks;
    Tick t = 0;
};

/**
 * Shared core of the two piecewise-constant-rate models: spend one
 * unit-rate exponential of "work" across rate segments (the exact
 * inversion of the non-homogeneous Poisson integral). MMPP draws its
 * segment schedule randomly; Diurnal replays a fixed trace.
 */
class MmppArrivals final : public ArrivalModel
{
  public:
    MmppArrivals(const ArrivalConfig &cfg, std::uint64_t seed)
        : rng(seed)
    {
        ratePerTick[0] = cfg.ratePerSec / ticksPerSecond;
        ratePerTick[1] = cfg.burstRatePerSec / ticksPerSecond;
        meanDwellTicks[0] = static_cast<double>(cfg.meanCalmTicks);
        meanDwellTicks[1] = static_cast<double>(cfg.meanBurstTicks);
        stateEnd = drawDwellEnd();
    }

    Tick
    next() override
    {
        double work = negLogUnit(unitUniform(rng));
        for (;;) {
            const double span = static_cast<double>(stateEnd - t);
            const double capacity = span * ratePerTick[state];
            if (work < capacity) {
                const double offset = work / ratePerTick[state];
                Tick step = static_cast<Tick>(offset + 0.5);
                if (step > stateEnd - t)
                    step = stateEnd - t;
                t += step;
                return t;
            }
            work -= capacity;
            t = stateEnd;
            state ^= 1u;
            stateEnd = drawDwellEnd();
        }
    }

  private:
    Tick
    drawDwellEnd()
    {
        auto dwell =
            static_cast<Tick>(expTicks(rng, meanDwellTicks[state]) + 0.5);
        return t + (dwell ? dwell : 1);
    }

    Xoshiro256StarStar rng;
    double ratePerTick[2] = {0.0, 0.0};
    double meanDwellTicks[2] = {0.0, 0.0};
    unsigned state = 0;
    Tick t = 0;
    Tick stateEnd = 0;
};

class DiurnalArrivals final : public ArrivalModel
{
  public:
    DiurnalArrivals(const ArrivalConfig &cfg, std::uint64_t seed)
        : rng(seed),
          trace(cfg.trace),
          baseRatePerTick(cfg.ratePerSec / ticksPerSecond)
    {
        segEnd = trace.front().duration;
    }

    Tick
    next() override
    {
        double work = negLogUnit(unitUniform(rng));
        for (;;) {
            const double rate =
                baseRatePerTick * trace[segIdx].rateScale;
            const double span = static_cast<double>(segEnd - t);
            const double capacity = span * rate;
            if (rate > 0.0 && work < capacity) {
                const double offset = work / rate;
                Tick step = static_cast<Tick>(offset + 0.5);
                if (step > segEnd - t)
                    step = segEnd - t;
                t += step;
                return t;
            }
            work -= capacity;
            t = segEnd;
            segIdx = (segIdx + 1) % trace.size();
            segEnd = t + trace[segIdx].duration;
        }
    }

  private:
    Xoshiro256StarStar rng;
    std::vector<DiurnalSegment> trace;
    double baseRatePerTick;
    std::size_t segIdx = 0;
    Tick t = 0;
    Tick segEnd = 0;
};

} // namespace

double
negLogUnit(double u)
{
    // Split u = m * 2^e with m in [1, 2); then reduce m into
    // [sqrt(1/2), sqrt(2)) so the series argument stays small:
    // -ln u = -(e * ln2 + ln m).
    std::uint64_t bits;
    std::memcpy(&bits, &u, sizeof(bits));
    int e = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    std::uint64_t mbits =
        (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL;
    double m;
    std::memcpy(&m, &mbits, sizeof(m));
    if (m > 1.4142135623730951) {
        m *= 0.5;
        e += 1;
    }

    // ln m = 2 atanh(z), z = (m-1)/(m+1) in (-0.172, 0.172); the odd
    // series 2z * sum z^2k/(2k+1) truncated at z^15 has relative
    // error < 3e-13 -- statistical noise for arrival gaps, while the
    // explicit fma chain keeps every operation correctly rounded and
    // out of the compiler's contraction reach (-ffp-contract never
    // changes a std::fma call), so the result is bit-identical on
    // every platform.
    const double z = (m - 1.0) / (m + 1.0);
    const double z2 = z * z;
    double poly = 1.0 / 15.0;
    poly = std::fma(poly, z2, 1.0 / 13.0);
    poly = std::fma(poly, z2, 1.0 / 11.0);
    poly = std::fma(poly, z2, 1.0 / 9.0);
    poly = std::fma(poly, z2, 1.0 / 7.0);
    poly = std::fma(poly, z2, 1.0 / 5.0);
    poly = std::fma(poly, z2, 1.0 / 3.0);
    poly = std::fma(poly, z2, 1.0);
    const double lnm = 2.0 * z * poly;

    constexpr double ln2 = 0x1.62e42fefa39efp-1;
    const double r = -std::fma(static_cast<double>(e), ln2, lnm);
    // u == 1 can land on -0.0; gaps are nonnegative by definition.
    return r > 0.0 ? r : 0.0;
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Mmpp:
        return "mmpp";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

std::uint64_t
arrivalConfigDigest(const ArrivalConfig &cfg)
{
    // The tag enters with its NUL terminator.
    static constexpr char tag[] = "hmcsim.arrival.v1";
    Fnv1a fnv;
    fnv.bytes(tag, sizeof(tag));
    fnv.u64(static_cast<std::uint64_t>(cfg.kind));
    fnv.f64(cfg.ratePerSec);
    fnv.f64(cfg.burstRatePerSec);
    fnv.u64(cfg.meanCalmTicks);
    fnv.u64(cfg.meanBurstTicks);
    fnv.u64(cfg.trace.size());
    for (const DiurnalSegment &seg : cfg.trace) {
        fnv.u64(seg.duration);
        fnv.f64(seg.rateScale);
    }
    return fnv.value();
}

std::uint64_t
deriveStreamSeed(std::uint64_t seed, const ArrivalConfig &cfg)
{
    std::uint64_t state = seed ^ arrivalConfigDigest(cfg);
    const std::uint64_t derived = splitMix64(state);
    return derived ? derived : 1;
}

const char *
arrivalConfigError(const ArrivalConfig &cfg)
{
    const auto positive = [](double v) {
        return v > 0.0 && std::isfinite(v);
    };
    if (!positive(cfg.ratePerSec))
        return "rate must be positive and finite";
    switch (cfg.kind) {
      case ArrivalKind::Poisson:
        return nullptr;
      case ArrivalKind::Mmpp:
        if (!positive(cfg.burstRatePerSec) || cfg.meanCalmTicks == 0 ||
            cfg.meanBurstTicks == 0)
            return "mmpp needs a positive burst_rate, calm_us and burst_us";
        return nullptr;
      case ArrivalKind::Diurnal: {
        bool usable = false;
        for (const DiurnalSegment &seg : cfg.trace) {
            if (seg.duration == 0 || !std::isfinite(seg.rateScale))
                return "trace has a segment of zero duration or "
                       "non-finite scale";
            if (seg.rateScale > 0.0)
                usable = true;
        }
        return usable ? nullptr
                      : "trace needs a segment with a positive rate";
      }
    }
    return "unknown arrival kind";
}

std::unique_ptr<ArrivalModel>
makeArrivalModel(const ArrivalConfig &cfg, std::uint64_t stream_seed)
{
    if (const char *why = arrivalConfigError(cfg))
        fatal("arrival: %s", why);
    switch (cfg.kind) {
      case ArrivalKind::Poisson:
        return std::make_unique<PoissonArrivals>(cfg.ratePerSec,
                                                 stream_seed);
      case ArrivalKind::Mmpp:
        return std::make_unique<MmppArrivals>(cfg, stream_seed);
      case ArrivalKind::Diurnal:
        return std::make_unique<DiurnalArrivals>(cfg, stream_seed);
    }
    return nullptr;
}

std::string
formatDiurnalTrace(const std::vector<DiurnalSegment> &trace)
{
    std::string out;
    char buf[80];
    for (const DiurnalSegment &seg : trace) {
        std::snprintf(buf, sizeof(buf), "%s%llu:%a",
                      out.empty() ? "" : ",",
                      static_cast<unsigned long long>(seg.duration),
                      seg.rateScale);
        out += buf;
    }
    return out;
}

bool
parseDiurnalTrace(const std::string &text,
                  std::vector<DiurnalSegment> &out)
{
    out.clear();
    std::string_view rest = text;
    for (;;) {
        // Every segment, the last included, is "duration:scale"; an
        // empty one (",,", a trailing comma) is malformed.
        const std::size_t comma = std::min(rest.find(','), rest.size());
        const std::string_view segment = rest.substr(0, comma);
        const std::size_t colon = segment.find(':');
        DiurnalSegment seg;
        if (colon == std::string_view::npos ||
            parseKeyNumber(segment.substr(0, colon), seg.duration) ||
            seg.duration == 0)
            return false;
        // strtod accepts both the %a round-trip form and plain
        // decimals for hand-written traces; a sign, space, "inf" or
        // "nan" does not start with a digit.
        const char *scale = segment.data() + colon + 1;
        if (!std::isdigit(static_cast<unsigned char>(*scale)))
            return false;
        char *end = nullptr;
        seg.rateScale = std::strtod(scale, &end);
        if (end != segment.data() + segment.size() ||
            !std::isfinite(seg.rateScale))
            return false;
        out.push_back(seg);
        if (comma == rest.size())
            return true;
        rest.remove_prefix(comma + 1);
    }
}

} // namespace hmcsim
