/**
 * @file
 * Targeted access patterns (Sec. IV-A).
 *
 * The paper builds its sweep axes from mask registers: an "n-bank"
 * pattern confines random traffic to n banks of vault 0, an "n-vault"
 * pattern to all banks of n vaults. This header constructs the masks
 * from the address mapper's field positions, plus the raw eight-bit
 * masks of the Fig. 6 experiment.
 */

#ifndef HMCSIM_GUPS_PATTERNS_HH
#define HMCSIM_GUPS_PATTERNS_HH

#include <string>
#include <vector>

#include "hmc/address_mapper.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** A named mask pair defining where traffic may land. */
struct AccessPattern
{
    std::string name;
    Addr mask = 0;      ///< Bits forced to zero.
    Addr antiMask = 0;  ///< Bits forced to one.
    /** Number of distinct vaults reachable (for reporting). */
    unsigned vaultSpan = 0;
    /** Number of distinct banks reachable in total. */
    unsigned bankSpan = 0;
};

/** Make a mask with bits [lo, hi] set. */
constexpr Addr
bitRangeMask(unsigned lo, unsigned hi)
{
    const Addr width = hi - lo + 1;
    const Addr ones =
        width >= 64 ? ~Addr(0) : ((Addr(1) << width) - 1);
    return ones << lo;
}

/** Why @p num_banks cannot form a bank pattern on @p mapper's
 *  device (not a power of two, or more banks than a vault has), or
 *  nullptr when it can. */
const char *bankCountError(const AddressMapper &mapper,
                           unsigned num_banks);

/** Why @p num_vaults cannot form a vault pattern on @p mapper's
 *  device, or nullptr when it can. */
const char *vaultCountError(const AddressMapper &mapper,
                            unsigned num_vaults);

/**
 * Pattern confining traffic to @p num_banks banks within vault 0
 * (fatal unless bankCountError() accepts @p num_banks).
 */
AccessPattern bankPattern(const AddressMapper &mapper,
                          unsigned num_banks);

/**
 * Pattern spreading traffic over all banks of @p num_vaults vaults
 * (fatal unless vaultCountError() accepts @p num_vaults).
 */
AccessPattern vaultPattern(const AddressMapper &mapper,
                           unsigned num_vaults);

/**
 * The paper's canonical x-axis (Figs. 7-10, 16): 16, 8, 4, 2 vaults,
 * then 1 vault (all banks), then 8, 4, 2, 1 banks of vault 0.
 * Ordered from most to least distributed.
 */
std::vector<AccessPattern> paperPatternAxis(const AddressMapper &mapper);

/**
 * Fig. 6: eight-bit masks applied at the given low bit positions
 * (24, 10, 7, 3, 2, 1, 0 -> masks 24-31, 10-17, 7-14, 3-10, 2-9,
 * 1-8, 0-7).
 */
std::vector<AccessPattern> fig6MaskSweep(const AddressMapper &mapper);

} // namespace hmcsim

#endif // HMCSIM_GUPS_PATTERNS_HH
