#include "protocol/fields.hh"

#include "protocol/crc.hh"
#include "sim/logging.hh"

namespace hmcsim
{

namespace
{

constexpr std::uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

} // namespace

std::uint64_t
encodeRequestHeader(const RequestHeader &header)
{
    std::uint64_t bits = 0;
    bits |= (static_cast<std::uint64_t>(header.cmd) & mask(7)) << 0;
    bits |= (static_cast<std::uint64_t>(header.lng) & mask(5)) << 7;
    bits |= (static_cast<std::uint64_t>(header.tag) & mask(11)) << 12;
    bits |= (static_cast<std::uint64_t>(header.adrs) & mask(34)) << 23;
    bits |= (static_cast<std::uint64_t>(header.cub) & mask(3)) << 57;
    return bits;
}

RequestHeader
decodeRequestHeader(std::uint64_t bits)
{
    RequestHeader header;
    header.cmd = static_cast<std::uint8_t>((bits >> 0) & mask(7));
    header.lng = static_cast<std::uint8_t>((bits >> 7) & mask(5));
    header.tag = static_cast<std::uint16_t>((bits >> 12) & mask(11));
    header.adrs = (bits >> 23) & mask(34);
    header.cub = static_cast<std::uint8_t>((bits >> 57) & mask(3));
    return header;
}

std::uint64_t
encodePacketTail(const PacketTail &tail)
{
    std::uint64_t bits = 0;
    bits |= (static_cast<std::uint64_t>(tail.crc) & mask(32)) << 0;
    bits |= (static_cast<std::uint64_t>(tail.rtc) & mask(5)) << 32;
    bits |= (static_cast<std::uint64_t>(tail.slid) & mask(3)) << 37;
    bits |= (static_cast<std::uint64_t>(tail.seq) & mask(3)) << 40;
    bits |= (static_cast<std::uint64_t>(tail.frp) & mask(8)) << 43;
    bits |= (static_cast<std::uint64_t>(tail.rrp) & mask(8)) << 51;
    return bits;
}

PacketTail
decodePacketTail(std::uint64_t bits)
{
    PacketTail tail;
    tail.crc = static_cast<std::uint32_t>((bits >> 0) & mask(32));
    tail.rtc = static_cast<std::uint8_t>((bits >> 32) & mask(5));
    tail.slid = static_cast<std::uint8_t>((bits >> 37) & mask(3));
    tail.seq = static_cast<std::uint8_t>((bits >> 40) & mask(3));
    tail.frp = static_cast<std::uint8_t>((bits >> 43) & mask(8));
    tail.rrp = static_cast<std::uint8_t>((bits >> 51) & mask(8));
    return tail;
}

CommandCode
commandCode(Command cmd, Bytes payload)
{
    const unsigned flits = dataFlits(payload);
    switch (cmd) {
      case Command::Read:
        return static_cast<CommandCode>(
            static_cast<std::uint8_t>(CommandCode::RD16) + flits - 1);
      case Command::Write:
        return static_cast<CommandCode>(
            static_cast<std::uint8_t>(CommandCode::WR16) + flits - 1);
      case Command::Atomic:
        return CommandCode::Atomic2Add8;
    }
    return CommandCode::Error;
}

Command
commandClass(std::uint8_t code)
{
    const auto rd16 = static_cast<std::uint8_t>(CommandCode::RD16);
    const auto wr16 = static_cast<std::uint8_t>(CommandCode::WR16);
    if (code >= rd16 && code < rd16 + 8)
        return Command::Read;
    if (code >= wr16 && code < wr16 + 8)
        return Command::Write;
    if (code == static_cast<std::uint8_t>(CommandCode::Atomic2Add8))
        return Command::Atomic;
    fatal("unknown command code 0x%02x", code);
}

Bytes
payloadForCode(std::uint8_t code)
{
    const auto rd16 = static_cast<std::uint8_t>(CommandCode::RD16);
    const auto wr16 = static_cast<std::uint8_t>(CommandCode::WR16);
    if (code >= rd16 && code < rd16 + 8)
        return static_cast<Bytes>(code - rd16 + 1) * 16;
    if (code >= wr16 && code < wr16 + 8)
        return static_cast<Bytes>(code - wr16 + 1) * 16;
    if (code == static_cast<std::uint8_t>(CommandCode::Atomic2Add8))
        return 16;
    fatal("unknown command code 0x%02x", code);
}

RequestHeader
makeRequestHeader(const Packet &pkt, std::uint8_t cub)
{
    RequestHeader header;
    header.cub = cub;
    header.adrs = pkt.addr & mask(34);
    header.tag = static_cast<std::uint16_t>(pkt.tag & mask(11));
    header.lng = static_cast<std::uint8_t>(pkt.reqFlits());
    header.cmd = static_cast<std::uint8_t>(
        commandCode(pkt.cmd, pkt.payload));
    return header;
}

std::uint32_t
packetCrc(const Packet &pkt, std::uint64_t header_bits)
{
    // The header carries the command, the length and the address; the
    // id and the full address name the packet the header was built
    // for. Payload bytes are not modelled, so there is nothing else
    // to protect.
    const std::uint64_t words[3] = {header_bits, pkt.id, pkt.addr};
    return Crc32::compute(words, sizeof(words));
}

} // namespace hmcsim
