/**
 * @file
 * The FNV-1a (64-bit) accumulator behind every content digest. A
 * digest is defined by the bytes it hashes: integers enter low byte
 * first and doubles as their exact bits, on any host. Strings get no
 * framing here; each caller states its own (length prefix, NUL).
 */

#ifndef HMCSIM_SIM_FNV1A_HH
#define HMCSIM_SIM_FNV1A_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hmcsim
{

class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(static_cast<const unsigned char *>(data)[i]);
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return hash; }

  private:
    void
    byte(unsigned char b)
    {
        hash = (hash ^ b) * 0x100000001B3ULL;
    }

    std::uint64_t hash = 0xCBF29CE484222325ULL;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_FNV1A_HH
