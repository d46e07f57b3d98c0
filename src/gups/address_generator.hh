/**
 * @file
 * GUPS address generator (Fig. 4b, "Add. Gen.").
 *
 * Each GUPS port generates linear or random addresses and can force
 * address bits to zero (mask) or one (anti-mask), which is how the
 * paper steers traffic at specific quadrants, vaults, and banks
 * (Sec. III-B, Sec. IV-A).
 */

#ifndef HMCSIM_GUPS_ADDRESS_GENERATOR_HH
#define HMCSIM_GUPS_ADDRESS_GENERATOR_HH

#include <cstddef>
#include <cstdint>

#include "sim/random.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Addressing mode of a port. */
enum class AddressingMode : std::uint8_t
{
    Random, ///< Uniform random over the (masked) address space.
    Linear, ///< Sequential, striding by the request size.
};

const char *addressingModeName(AddressingMode mode);

/**
 * Why @p size is not a legal request size, or nullptr when it is: HMC
 * payloads are 1..8 flits, so any multiple of 16 B from 16 B up to
 * maxPayloadBytes.
 */
const char *requestSizeError(Bytes size);

/** Generator configuration. */
struct AddressGeneratorConfig
{
    AddressingMode mode = AddressingMode::Random;
    /** Request size; addresses align to this boundary. */
    Bytes requestSize = 128;
    /** Device capacity (wraps the linear sequence). */
    Bytes capacity = 4 * gib;
    /** Bits forced to zero. */
    Addr mask = 0;
    /** Bits forced to one. */
    Addr antiMask = 0;
    /**
     * Starting address of the linear sequence. The nine GUPS ports
     * stream from staggered regions so linear full-scale traffic
     * keeps several banks busy at once.
     */
    Addr linearStart = 0;
};

/** Produces the address stream for one port. */
class AddressGenerator
{
  public:
    AddressGenerator(const AddressGeneratorConfig &cfg,
                     std::uint64_t seed);

    /** Next address in the stream (aligned, masked). */
    Addr next();

    /**
     * Generate the next @p n addresses of the stream into @p out.
     * Exactly equivalent to n calls to next(): the RNG (or linear
     * cursor) is consumed in the same order, so a port that fills an
     * issue window ahead of time produces the same address sequence
     * as one that generates per request (the tail it never issues is
     * unobservable). Hoists the alignment/bound/mask work out of the
     * per-address loop.
     */
    void fill(Addr *out, std::size_t n);

    /** Alignment the generator holds addresses to (16 or 32 B). */
    Addr alignment() const { return align; }

    const AddressGeneratorConfig &config() const { return cfg; }

  private:
    AddressGeneratorConfig cfg;
    Xoshiro256StarStar rng;
    Addr linearCursor = 0;
    // Hoisted per-address constants: next()/fill() used to recompute
    // the alignment and the random bound (a 64-bit divide) per call.
    Addr align = 16;
    Addr alignMask = ~Addr(15);
    std::uint64_t randomBound = 1;
};

} // namespace hmcsim

#endif // HMCSIM_GUPS_ADDRESS_GENERATOR_HH
