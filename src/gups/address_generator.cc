#include "gups/address_generator.hh"

#include "protocol/packet.hh"
#include "sim/logging.hh"

namespace hmcsim
{

const char *
addressingModeName(AddressingMode mode)
{
    return mode == AddressingMode::Random ? "random" : "linear";
}

const char *
requestSizeError(Bytes size)
{
    static_assert(maxPayloadBytes == 128, "update the reason below");
    if (size == 0 || size % 16 != 0 || size > maxPayloadBytes)
        return "must be a multiple of 16 B from 16 to 128 B";
    return nullptr;
}

AddressGenerator::AddressGenerator(const AddressGeneratorConfig &cfg,
                                   std::uint64_t seed)
    : cfg(cfg), rng(seed),
      linearCursor(cfg.linearStart % (cfg.capacity ? cfg.capacity : 1))
{
    if (const char *why = requestSizeError(cfg.requestSize))
        fatal("request size %llu %s",
              static_cast<unsigned long long>(cfg.requestSize), why);
    // When the capacity is not a multiple of the request size, the
    // linear sequence wraps before an access would cross the limit.

    // Requests should start on 32 B boundaries to use the vault data
    // bus efficiently (Sec. II-C); sizes that are not a multiple of
    // 32 B can only be held to 16 B boundaries.
    align = cfg.requestSize % 32 == 0 ? 32 : 16;
    alignMask = ~(align - 1);
    randomBound = cfg.capacity / align;
}

Addr
AddressGenerator::next()
{
    Addr addr;
    if (cfg.mode == AddressingMode::Random) {
        addr = rng.nextBounded(randomBound) * align;
    } else {
        addr = linearCursor;
        linearCursor += cfg.requestSize;
        if (linearCursor + cfg.requestSize > cfg.capacity)
            linearCursor = 0;
    }
    // Force bits to zero/one per the mask registers, then re-align so
    // the anti-mask cannot produce an unaligned access.
    addr = (addr & ~cfg.mask) | cfg.antiMask;
    addr &= alignMask;
    return addr;
}

void
AddressGenerator::fill(Addr *out, std::size_t n)
{
    const Addr clear_mask = ~cfg.mask;
    const Addr set_mask = cfg.antiMask;
    if (cfg.mode == AddressingMode::Random) {
        const std::uint64_t bound = randomBound;
        const Addr a = align;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr addr = rng.nextBounded(bound) * a;
            out[i] = ((addr & clear_mask) | set_mask) & alignMask;
        }
    } else {
        Addr cursor = linearCursor;
        const Bytes step = cfg.requestSize;
        const Bytes limit = cfg.capacity;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr addr = cursor;
            cursor += step;
            if (cursor + step > limit)
                cursor = 0;
            out[i] = ((addr & clear_mask) | set_mask) & alignMask;
        }
        linearCursor = cursor;
    }
}

} // namespace hmcsim
