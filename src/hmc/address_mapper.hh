/**
 * @file
 * HMC internal address mapping (Sec. II-C and Fig. 3 of the paper).
 *
 * HMC interleaves 16 B blocks low-order across vaults, then banks:
 *
 *   [33:32] ignored | row bits | bank (4b) | vault (4b) | block | [3:0]
 *
 * where the "block" field width is set by the Address Mapping Mode
 * Register (maximum block size 16/32/64/128 B; default 0x2 = 128 B).
 * The vault field's two high bits select the quadrant and the two low
 * bits the vault within it.
 *
 * Consequences encoded here and exercised by tests:
 *  - sequential blocks spread across all 16 vaults first, then banks;
 *  - a 4 KB OS page spans 2 banks in every vault (128 B mode);
 *  - up to 128 serially-allocated pages can be accessed with maximum
 *    bank-level parallelism (16 vaults x 8 page slots).
 */

#ifndef HMCSIM_HMC_ADDRESS_MAPPER_HH
#define HMCSIM_HMC_ADDRESS_MAPPER_HH

#include <cstdint>

#include "hmc/config.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** Decoded location of an address inside the cube. */
struct DecodedAddress
{
    std::uint8_t quadrant;
    std::uint8_t vault;    ///< Global vault id (0..numVaults-1).
    std::uint8_t bank;     ///< Bank within the vault.
    std::uint32_t row;     ///< DRAM row within the bank.
    std::uint32_t column;  ///< Byte offset within the row.
};

/** Maximum block size values accepted by the mode register. */
enum class MaxBlockSize : std::uint16_t
{
    B16 = 16,
    B32 = 32,
    B64 = 64,
    B128 = 128, ///< Default (mode register 0x2), used by the paper.
};

/**
 * Interleaving order of the vault/bank fields. The HMC specification
 * lets the user fine-tune the mapping by moving the bit positions
 * (Sec. II-C); the two useful orders are:
 *
 *  - VaultFirst (the device default the paper studies): sequential
 *    blocks spread across vaults, then banks -- maximum parallelism
 *    for streams.
 *  - BankFirst: sequential blocks fill the banks of one vault before
 *    moving on (vault and bank fields swapped in the low bits).
 *  - ContiguousVault: the vault is selected by the *top* address
 *    bits, so each vault owns a contiguous 256 MB region -- the
 *    "allocate data sequentially within a vault" layout the paper
 *    warns against (Sec. IV-D): any array smaller than a vault then
 *    lives behind a single 10 GB/s controller.
 */
enum class MappingScheme : std::uint8_t
{
    VaultFirst,
    BankFirst,
    ContiguousVault,
};

const char *mappingSchemeName(MappingScheme scheme);

/** True iff @p block names a MaxBlockSize enumerator, the one enum
 *  whose values are not 0..last. */
constexpr bool
validMaxBlock(MaxBlockSize block)
{
    return block == MaxBlockSize::B16 || block == MaxBlockSize::B32 ||
           block == MaxBlockSize::B64 || block == MaxBlockSize::B128;
}

/** nullptr if AddressMapper can split @p cfg's addresses into fields
 *  (capacity, vault count and banks per vault are powers of two, the
 *  counts at most 256, and there are 1 to numVaults quadrants); else
 *  why not. */
const char *deviceStructureError(const HmcConfig &cfg);

/** Low-order-interleaved HMC address mapper. */
class AddressMapper
{
  public:
    /**
     * @param cfg Device structure (vault/bank counts, capacity).
     * @param max_block Address Mapping Mode Register setting.
     * @param row_bytes DRAM row (page) size; 256 B in HMC.
     * @param scheme Field order (VaultFirst is the device default).
     */
    AddressMapper(const HmcConfig &cfg,
                  MaxBlockSize max_block = MaxBlockSize::B128,
                  Bytes row_bytes = 256,
                  MappingScheme scheme = MappingScheme::VaultFirst);

    /**
     * Decode a cube address into its structural coordinates.
     *
     * This is the hot per-request path: every field extraction runs
     * off the plan precompiled by the constructor (shift/mask tables,
     * see buildPlan), so no division or modulo survives at decode
     * time for power-of-two geometries. decodeReference() keeps the
     * textbook div/mod formulation for differential testing.
     */
    DecodedAddress
    decode(Addr addr) const
    {
        // The request header carries 34 bits; bits above the
        // implemented capacity are ignored (Sec. II-C).
        addr &= _addrMask;

        DecodedAddress d;
        d.vault = static_cast<std::uint8_t>((addr >> _vaultShift) &
                                            _vaultFieldMask);
        d.bank = static_cast<std::uint8_t>((addr >> _bankShift) &
                                           _bankFieldMask);
        d.quadrant = _quadPow2
                         ? static_cast<std::uint8_t>(d.vault >> _quadShift)
                         : static_cast<std::uint8_t>(d.vault / _quadDiv);

        // Byte address local to the (vault, bank). Interleaved
        // schemes concatenate the group and in-block fields; the
        // block size is always a power of two, so the multiply-add
        // is a shift-or.
        const Addr bank_local =
            _contiguous ? (addr & _bankLocalMask)
                        : (((addr >> _rowShift) << _blockShift) |
                           (addr & _blockMask));
        if (_rowPow2) {
            d.row = static_cast<std::uint32_t>(bank_local >> _rowByteShift);
            d.column = static_cast<std::uint32_t>(bank_local & _rowByteMask);
        } else {
            d.row = static_cast<std::uint32_t>(bank_local / rowBytes);
            d.column = static_cast<std::uint32_t>(bank_local % rowBytes);
        }
        return d;
    }

    /**
     * Reference decode: the pre-plan div/mod formulation, kept so the
     * randomized differential test can assert the precompiled plan is
     * bit-identical across schemes, block sizes, and row sizes.
     */
    DecodedAddress decodeReference(Addr addr) const;

    /** First bit of the vault field (4 + block offset bits). */
    unsigned vaultShift() const { return _vaultShift; }
    /** First bit of the bank field. */
    unsigned bankShift() const { return _bankShift; }
    /** First bit of the upper (row-forming) field. */
    unsigned rowShift() const { return _rowShift; }
    /** Number of vault-select bits. */
    unsigned vaultBits() const { return _vaultBits; }
    /** Number of bank-select bits. */
    unsigned bankBits() const { return _bankBits; }
    /** Usable address bits (34 in the header; high bits ignored). */
    unsigned addressBits() const { return _addrBits; }
    /** Configured maximum block size in bytes. */
    Bytes maxBlockBytes() const { return _maxBlock; }
    /** Configured interleaving scheme. */
    MappingScheme scheme() const { return _scheme; }

    /** Mask selecting only implemented address bits. */
    Addr
    addressMask() const
    {
        return (Addr(1) << _addrBits) - 1;
    }

    /**
     * Number of distinct (vault, bank) pairs touched by a contiguous
     * region, e.g. an OS page. Used to verify the paper's page-layout
     * claims.
     */
    unsigned regionBankSpan(Addr base, Bytes length) const;

    /** Number of distinct vaults touched by a contiguous region. */
    unsigned regionVaultSpan(Addr base, Bytes length) const;

  private:
    /** Reduce the decode arithmetic to shift/mask tables. */
    void buildPlan();

    HmcConfig cfg;
    Bytes _maxBlock;
    Bytes rowBytes;
    MappingScheme _scheme;
    unsigned _addrBits;
    unsigned _vaultShift;
    unsigned _vaultBits;
    unsigned _bankShift;
    unsigned _bankBits;
    unsigned _rowShift;

    // Precompiled decode plan (buildPlan). Power-of-two geometries --
    // every Table I device -- decode with shifts and masks only; the
    // div/mod fallbacks cover exotic row sizes or quadrant counts.
    Addr _addrMask = 0;
    Addr _vaultFieldMask = 0;
    Addr _bankFieldMask = 0;
    Addr _blockMask = 0;
    Addr _bankLocalMask = 0;
    Addr _rowByteMask = 0;
    unsigned _blockShift = 0;
    unsigned _quadShift = 0;
    unsigned _quadDiv = 1;
    unsigned _rowByteShift = 0;
    bool _quadPow2 = false;
    bool _rowPow2 = false;
    bool _contiguous = false;
};

} // namespace hmcsim

#endif // HMCSIM_HMC_ADDRESS_MAPPER_HH
