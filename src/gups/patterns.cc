#include "gups/patterns.hh"

#include <bit>

#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

/** Count reachable vaults/banks under a zero-forcing mask. */
void
fillSpans(const AddressMapper &mapper, AccessPattern &pattern)
{
    const Addr vault_field =
        bitRangeMask(mapper.vaultShift(),
                     mapper.vaultShift() + mapper.vaultBits() - 1);
    const Addr bank_field =
        bitRangeMask(mapper.bankShift(),
                     mapper.bankShift() + mapper.bankBits() - 1);
    const unsigned free_vault_bits =
        mapper.vaultBits() -
        static_cast<unsigned>(std::popcount(pattern.mask & vault_field));
    const unsigned free_bank_bits =
        mapper.bankBits() -
        static_cast<unsigned>(std::popcount(pattern.mask & bank_field));
    pattern.vaultSpan = 1u << free_vault_bits;
    pattern.bankSpan = pattern.vaultSpan * (1u << free_bank_bits);
}

/** Why @p v is not a power of two that fits a @p field_bits-wide
 *  address field, or nullptr. */
const char *
countError(unsigned v, unsigned field_bits, const char *too_large)
{
    if (!std::has_single_bit(v))
        return "must be a power of two";
    if (static_cast<unsigned>(std::countr_zero(v)) > field_bits)
        return too_large;
    return nullptr;
}

} // namespace

const char *
bankCountError(const AddressMapper &mapper, unsigned num_banks)
{
    return countError(num_banks, mapper.bankBits(),
                      "is more banks than a vault has");
}

const char *
vaultCountError(const AddressMapper &mapper, unsigned num_vaults)
{
    return countError(num_vaults, mapper.vaultBits(),
                      "is more vaults than the device has");
}

AccessPattern
bankPattern(const AddressMapper &mapper, unsigned num_banks)
{
    if (const char *why = bankCountError(mapper, num_banks))
        fatal("bank count %u %s", num_banks, why);
    const auto free_bits =
        static_cast<unsigned>(std::countr_zero(num_banks));

    AccessPattern p;
    p.name = num_banks == 1 ? "1 bank" : std::to_string(num_banks) +
                                             " banks";
    // All vault-select bits to zero: stay in vault 0.
    p.mask = bitRangeMask(mapper.vaultShift(),
                          mapper.vaultShift() + mapper.vaultBits() - 1);
    // Zero the bank bits above the allowed range.
    if (free_bits < mapper.bankBits()) {
        p.mask |= bitRangeMask(mapper.bankShift() + free_bits,
                               mapper.bankShift() + mapper.bankBits() - 1);
    }
    fillSpans(mapper, p);
    return p;
}

AccessPattern
vaultPattern(const AddressMapper &mapper, unsigned num_vaults)
{
    if (const char *why = vaultCountError(mapper, num_vaults))
        fatal("vault count %u %s", num_vaults, why);
    const auto free_bits =
        static_cast<unsigned>(std::countr_zero(num_vaults));

    AccessPattern p;
    p.name = num_vaults == 1 ? "1 vault" : std::to_string(num_vaults) +
                                               " vaults";
    if (free_bits < mapper.vaultBits()) {
        p.mask = bitRangeMask(mapper.vaultShift() + free_bits,
                              mapper.vaultShift() + mapper.vaultBits() - 1);
    }
    fillSpans(mapper, p);
    return p;
}

std::vector<AccessPattern>
paperPatternAxis(const AddressMapper &mapper)
{
    std::vector<AccessPattern> axis;
    for (unsigned v = mapper.vaultBits() ? 1u << mapper.vaultBits() : 1;
         v >= 2; v /= 2) {
        axis.push_back(vaultPattern(mapper, v));
    }
    axis.push_back(vaultPattern(mapper, 1)); // "1 vault": all banks.
    for (unsigned b = (1u << mapper.bankBits()) / 2; b >= 1; b /= 2)
        axis.push_back(bankPattern(mapper, b));
    return axis;
}

std::vector<AccessPattern>
fig6MaskSweep(const AddressMapper &mapper)
{
    std::vector<AccessPattern> sweep;
    for (unsigned lo : {24u, 10u, 7u, 3u, 2u, 1u, 0u}) {
        AccessPattern p;
        p.name = std::to_string(lo) + "-" + std::to_string(lo + 7);
        p.mask = bitRangeMask(lo, lo + 7);
        fillSpans(mapper, p);
        sweep.push_back(p);
    }
    return sweep;
}

} // namespace hmcsim
