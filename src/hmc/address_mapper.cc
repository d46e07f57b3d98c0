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
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("%s must be a power of two (got %llu)", what,
              static_cast<unsigned long long>(v));
    return static_cast<unsigned>(std::countr_zero(v));
}
} // namespace

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
    _addrBits = log2Exact(cfg.capacity, "device capacity");
    const unsigned block_bits = log2Exact(_maxBlock / 16, "block ratio");
    const unsigned field_base = 4 + block_bits;
    _vaultBits = log2Exact(cfg.numVaults, "vault count");
    _bankBits = log2Exact(cfg.banksPerVault(), "banks per vault");
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
