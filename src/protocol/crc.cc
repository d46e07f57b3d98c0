#include "protocol/crc.hh"

#include <array>
#include <cstring>

namespace hmcsim
{

namespace
{

/** Reflect the 32-bit polynomial for LSB-first table generation. */
constexpr std::uint32_t
reflect32(std::uint32_t v)
{
    std::uint32_t r = 0;
    for (int i = 0; i < 32; ++i) {
        r = (r << 1) | (v & 1u);
        v >>= 1;
    }
    return r;
}

constexpr std::uint32_t reflectedPoly = reflect32(hmcCrcPolynomial);

/**
 * Slicing-by-8 tables. Table 0 is the classic byte-at-a-time table;
 * table k advances a byte's contribution k further positions through
 * the register, so eight bytes fold in one step with eight
 * independent lookups instead of eight serial ones. The computed CRC
 * is bit-identical to the byte-wise form (the controller stamps and
 * the cube verifies the same values as before the optimization).
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? reflectedPoly : 0u);
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr auto crcTables = makeTables();

} // namespace

Crc32::Crc32() : state(~0u)
{
}

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // Hot path: the packet CRC feeds three 8-byte words (header bits,
    // id, address), so each folds in one step.
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, 8);
        word ^= state;
        state = crcTables[7][word & 0xFFu] ^
                crcTables[6][(word >> 8) & 0xFFu] ^
                crcTables[5][(word >> 16) & 0xFFu] ^
                crcTables[4][(word >> 24) & 0xFFu] ^
                crcTables[3][(word >> 32) & 0xFFu] ^
                crcTables[2][(word >> 40) & 0xFFu] ^
                crcTables[1][(word >> 48) & 0xFFu] ^
                crcTables[0][(word >> 56) & 0xFFu];
        bytes += 8;
        len -= 8;
    }
#endif
    for (std::size_t i = 0; i < len; ++i)
        state = (state >> 8) ^ crcTables[0][(state ^ bytes[i]) & 0xFFu];
}

void
Crc32::reset()
{
    state = ~0u;
}

std::uint32_t
Crc32::compute(const void *data, std::size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace hmcsim
