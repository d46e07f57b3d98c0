#include "hmc/address_mapper.hh"

#include <bit>
#include <set>
#include <utility>

#include "sim/logging.hh"

namespace hmcsim
{

namespace
{
unsigned
log2Of(std::uint64_t pow2)
{
    return static_cast<unsigned>(std::countr_zero(pow2));
}
} // namespace

const char *
deviceStructureError(const HmcConfig &cfg)
{
    if (!std::has_single_bit(cfg.capacity))
        return "device capacity must be a power of two";
    // Vault and bank ids travel in 8-bit fields (DecodedAddress).
    if (!std::has_single_bit(cfg.numVaults) || cfg.numVaults > 256)
        return "vault count must be a power of two up to 256";
    if (!std::has_single_bit(cfg.banksPerVault()) || cfg.banksPerVault() > 256)
        return "banks per vault must be a power of two up to 256";
    if (cfg.numQuadrants == 0 || cfg.numQuadrants > cfg.numVaults)
        return "quadrant count must be from 1 to the vault count";
    return nullptr;
}

const char *
mappingSchemeName(MappingScheme scheme)
{
    switch (scheme) {
      case MappingScheme::VaultFirst:
        return "vault-first";
      case MappingScheme::BankFirst:
        return "bank-first";
      case MappingScheme::ContiguousVault:
        return "contiguous-vault";
    }
    return "?";
}

AddressMapper::AddressMapper(const HmcConfig &cfg, MaxBlockSize max_block,
                             Bytes row_bytes, MappingScheme scheme)
    : cfg(cfg),
      _maxBlock(static_cast<Bytes>(max_block)),
      rowBytes(row_bytes),
      _scheme(scheme)
{
    if (!validMaxBlock(max_block))
        fatal("max block must be 16, 32, 64 or 128 B (got %llu)",
              static_cast<unsigned long long>(_maxBlock));
    if (const char *why = deviceStructureError(cfg))
        fatal("%s (%s: %llu B, %u vaults, %u banks, %u quadrants)", why,
              cfg.name.c_str(), static_cast<unsigned long long>(cfg.capacity),
              cfg.numVaults, cfg.numBanks(), cfg.numQuadrants);
    _addrBits = log2Of(cfg.capacity);
    const unsigned field_base = 4 + log2Of(_maxBlock / 16);
    _vaultBits = log2Of(cfg.numVaults);
    _bankBits = log2Of(cfg.banksPerVault());
    switch (_scheme) {
      case MappingScheme::VaultFirst:
        _vaultShift = field_base;
        _bankShift = _vaultShift + _vaultBits;
        _rowShift = field_base + _vaultBits + _bankBits;
        break;
      case MappingScheme::BankFirst:
        _bankShift = field_base;
        _vaultShift = _bankShift + _bankBits;
        _rowShift = field_base + _vaultBits + _bankBits;
        break;
      case MappingScheme::ContiguousVault:
        // Vault in the top bits, banks just below; everything under
        // the bank field is a flat bank-local byte address.
        _vaultShift = _addrBits - _vaultBits;
        _bankShift = _vaultShift - _bankBits;
        _rowShift = _bankShift;
        break;
    }
    buildPlan();
}

void
AddressMapper::buildPlan()
{
    _addrMask = addressMask();
    _vaultFieldMask = cfg.numVaults - 1;
    _bankFieldMask = cfg.banksPerVault() - 1;
    _blockMask = _maxBlock - 1;
    _blockShift = static_cast<unsigned>(std::countr_zero(_maxBlock));
    _bankLocalMask = (Addr(1) << _bankShift) - 1;
    _contiguous = _scheme == MappingScheme::ContiguousVault;

    _quadDiv = cfg.vaultsPerQuadrant();
    _quadPow2 = std::has_single_bit(std::uint64_t{_quadDiv});
    if (_quadPow2)
        _quadShift = static_cast<unsigned>(std::countr_zero(
            std::uint64_t{_quadDiv}));

    _rowPow2 = std::has_single_bit(std::uint64_t{rowBytes});
    if (_rowPow2) {
        _rowByteShift = static_cast<unsigned>(std::countr_zero(
            std::uint64_t{rowBytes}));
        _rowByteMask = rowBytes - 1;
    }
}

DecodedAddress
AddressMapper::decodeReference(Addr addr) const
{
    addr &= addressMask();

    DecodedAddress d;
    d.vault = static_cast<std::uint8_t>((addr >> _vaultShift) &
                                        (cfg.numVaults - 1));
    d.bank = static_cast<std::uint8_t>((addr >> _bankShift) &
                                       (cfg.banksPerVault() - 1));
    d.quadrant = static_cast<std::uint8_t>(d.vault /
                                           cfg.vaultsPerQuadrant());

    // Byte address local to the (vault, bank).
    Addr bank_local;
    if (_scheme == MappingScheme::ContiguousVault) {
        // Low bits below the bank field are the bank-local address.
        bank_local = addr & ((Addr(1) << _bankShift) - 1);
    } else {
        // Interleaved: upper bits select a max-block-sized group, low
        // bits the offset within the block.
        const Addr group = addr >> _rowShift;
        const Addr in_block = addr & (_maxBlock - 1);
        bank_local = group * _maxBlock + in_block;
    }
    d.row = static_cast<std::uint32_t>(bank_local / rowBytes);
    d.column = static_cast<std::uint32_t>(bank_local % rowBytes);
    return d;
}

unsigned
AddressMapper::regionBankSpan(Addr base, Bytes length) const
{
    std::set<std::pair<unsigned, unsigned>> seen;
    for (Addr a = base; a < base + length; a += 16) {
        const DecodedAddress d = decode(a);
        seen.emplace(d.vault, d.bank);
    }
    return static_cast<unsigned>(seen.size());
}

unsigned
AddressMapper::regionVaultSpan(Addr base, Bytes length) const
{
    std::set<unsigned> seen;
    for (Addr a = base; a < base + length; a += 16)
        seen.insert(decode(a).vault);
    return static_cast<unsigned>(seen.size());
}

} // namespace hmcsim
