/**
 * @file
 * CRC-32 used by the HMC packet tail for link-level data integrity.
 *
 * The HMC specification protects every packet with a 32-bit CRC using
 * the Koopman polynomial 0x741B8CD7. The Add-CRC / verify stages of the
 * controller pipeline (Fig. 14, stages 6 and the RX mirror) compute
 * this over the packet; packetCrc (protocol/fields.hh) says which
 * bytes the simulator feeds it.
 */

#ifndef HMCSIM_PROTOCOL_CRC_HH
#define HMCSIM_PROTOCOL_CRC_HH

#include <cstddef>
#include <cstdint>

namespace hmcsim
{

/** Koopman CRC-32 polynomial specified for HMC packets. */
constexpr std::uint32_t hmcCrcPolynomial = 0x741B8CD7u;

/**
 * Incremental CRC-32 (reflected form) over a byte stream.
 */
class Crc32
{
  public:
    Crc32();

    /** Feed @p len bytes. */
    void update(const void *data, std::size_t len);

    /** Finalized CRC of everything fed so far (does not reset). */
    std::uint32_t value() const { return ~state; }

    /** Restart the computation. */
    void reset();

    /** One-shot convenience. */
    static std::uint32_t compute(const void *data, std::size_t len);

  private:
    std::uint32_t state;
};

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_CRC_HH
