/**
 * @file
 * Tests for the bit-level packet fields and the link-layer flow
 * control / retry machinery.
 */

#include <gtest/gtest.h>

#include <set>

#include "link/flow_control.hh"
#include "protocol/fields.hh"
#include "sim/random.hh"

namespace hmcsim
{
namespace
{

// ---- Header/tail encoding ------------------------------------------------

TEST(Fields, HeaderRoundTrip)
{
    RequestHeader h;
    h.cub = 5;
    h.adrs = 0x3FFFFFFFFULL; // all 34 bits
    h.tag = 0x7FF;
    h.lng = 9;
    h.cmd = 0x37;
    const RequestHeader back = decodeRequestHeader(encodeRequestHeader(h));
    EXPECT_EQ(back.cub, h.cub);
    EXPECT_EQ(back.adrs, h.adrs);
    EXPECT_EQ(back.tag, h.tag);
    EXPECT_EQ(back.lng, h.lng);
    EXPECT_EQ(back.cmd, h.cmd);
}

TEST(Fields, HeaderRoundTripFuzz)
{
    Xoshiro256StarStar rng(21);
    for (int i = 0; i < 2000; ++i) {
        RequestHeader h;
        h.cub = static_cast<std::uint8_t>(rng.nextBounded(8));
        h.adrs = rng.nextBounded(1ULL << 34);
        h.tag = static_cast<std::uint16_t>(rng.nextBounded(2048));
        h.lng = static_cast<std::uint8_t>(rng.nextBounded(32));
        h.cmd = static_cast<std::uint8_t>(rng.nextBounded(128));
        const RequestHeader back =
            decodeRequestHeader(encodeRequestHeader(h));
        ASSERT_EQ(back.adrs, h.adrs);
        ASSERT_EQ(back.tag, h.tag);
        ASSERT_EQ(back.cmd, h.cmd);
        ASSERT_EQ(back.lng, h.lng);
        ASSERT_EQ(back.cub, h.cub);
    }
}

TEST(Fields, TailRoundTrip)
{
    PacketTail t;
    t.crc = 0xDEADBEEF;
    t.rtc = 31;
    t.slid = 7;
    t.seq = 5;
    t.frp = 200;
    t.rrp = 100;
    const PacketTail back = decodePacketTail(encodePacketTail(t));
    EXPECT_EQ(back.crc, t.crc);
    EXPECT_EQ(back.rtc, t.rtc);
    EXPECT_EQ(back.slid, t.slid);
    EXPECT_EQ(back.seq, t.seq);
    EXPECT_EQ(back.frp, t.frp);
    EXPECT_EQ(back.rrp, t.rrp);
}

TEST(Fields, FieldsDoNotOverlap)
{
    // Setting one field must not perturb others.
    RequestHeader zero{0, 0, 0, 0, 0};
    RequestHeader only_tag = zero;
    only_tag.tag = 0x7FF;
    const std::uint64_t bits = encodeRequestHeader(only_tag);
    const RequestHeader back = decodeRequestHeader(bits);
    EXPECT_EQ(back.tag, 0x7FF);
    EXPECT_EQ(back.adrs, 0u);
    EXPECT_EQ(back.cmd, 0u);
    EXPECT_EQ(back.cub, 0u);
}

TEST(Fields, CommandCodes)
{
    EXPECT_EQ(commandCode(Command::Read, 16), CommandCode::RD16);
    EXPECT_EQ(static_cast<std::uint8_t>(commandCode(Command::Read, 128)),
              static_cast<std::uint8_t>(CommandCode::RD16) + 7);
    EXPECT_EQ(commandCode(Command::Write, 16), CommandCode::WR16);
    EXPECT_EQ(commandCode(Command::Atomic, 16),
              CommandCode::Atomic2Add8);
}

TEST(Fields, CommandCodeRoundTrip)
{
    for (Command cmd :
         {Command::Read, Command::Write, Command::Atomic}) {
        for (Bytes payload = 16; payload <= 128; payload += 16) {
            if (cmd == Command::Atomic && payload != 16)
                continue;
            const auto code = static_cast<std::uint8_t>(
                commandCode(cmd, payload));
            EXPECT_EQ(commandClass(code), cmd);
            EXPECT_EQ(payloadForCode(code), payload);
        }
    }
}

TEST(Fields, MakeRequestHeaderFromPacket)
{
    Packet pkt;
    pkt.cmd = Command::Write;
    pkt.addr = 0x12345678;
    pkt.payload = 64;
    pkt.tag = 42;
    const RequestHeader h = makeRequestHeader(pkt, 2);
    EXPECT_EQ(h.adrs, 0x12345678u);
    EXPECT_EQ(h.tag, 42u);
    EXPECT_EQ(h.lng, 5u); // 1 + 4 data flits
    EXPECT_EQ(commandClass(h.cmd), Command::Write);
    EXPECT_EQ(h.cub, 2u);
}

TEST(Fields, CrcDistinguishesPackets)
{
    Packet a;
    a.id = 1;
    a.addr = 0x1000;
    a.payload = 128;
    Packet b = a;
    b.id = 2;
    const std::uint64_t ha = encodeRequestHeader(makeRequestHeader(a));
    const std::uint64_t hb = encodeRequestHeader(makeRequestHeader(b));
    EXPECT_NE(packetCrc(a, ha), packetCrc(b, hb));
    // Same packet -> same CRC.
    EXPECT_EQ(packetCrc(a, ha), packetCrc(a, ha));

    // Only the address differs, inside and beyond the header's 34
    // address bits.
    for (const Addr addr : {Addr{0x1040}, Addr{0x1000} | Addr{1} << 40}) {
        Packet c = a;
        c.addr = addr;
        EXPECT_NE(packetCrc(a, ha),
                  packetCrc(c, encodeRequestHeader(makeRequestHeader(c))));
    }

    // Two writes that differ only in payload size, which reaches the
    // CRC through the header's length field (a read's length is one
    // flit whatever it asks for).
    Packet w128 = a;
    w128.cmd = Command::Write;
    Packet w64 = w128;
    w64.payload = 64;
    const std::uint64_t h128 = encodeRequestHeader(makeRequestHeader(w128));
    const std::uint64_t h64 = encodeRequestHeader(makeRequestHeader(w64));
    ASSERT_NE(decodeRequestHeader(h128).lng, decodeRequestHeader(h64).lng);
    EXPECT_NE(packetCrc(w128, h128), packetCrc(w64, h64));
}

// ---- Token flow control ----------------------------------------------------

TEST(TokenFlow, ConsumeAndReturn)
{
    TokenFlowControl fc(16);
    EXPECT_TRUE(fc.consume(9));
    EXPECT_EQ(fc.tokens(), 7u);
    EXPECT_FALSE(fc.consume(9)); // insufficient: stop signal
    EXPECT_EQ(fc.tokens(), 7u);  // nothing consumed on failure
    fc.returnTokens(9);
    EXPECT_TRUE(fc.consume(9));
}

TEST(TokenFlow, StopsAtZero)
{
    TokenFlowControl fc(4);
    EXPECT_TRUE(fc.consume(4));
    EXPECT_TRUE(fc.stopped());
    fc.returnTokens(1);
    EXPECT_FALSE(fc.stopped());
}

TEST(TokenFlow, OverReturnIsFatal)
{
    TokenFlowControl fc(4);
    EXPECT_DEATH(fc.returnTokens(1), "exceeds buffer capacity");
}

TEST(TokenFlow, ConservationUnderChurn)
{
    TokenFlowControl fc(64);
    Xoshiro256StarStar rng(3);
    unsigned in_flight = 0;
    for (int i = 0; i < 10000; ++i) {
        const unsigned flits = 1 + rng.nextBounded(9);
        if (fc.consume(flits)) {
            in_flight += flits;
        } else if (in_flight > 0) {
            fc.returnTokens(in_flight);
            in_flight = 0;
        }
        EXPECT_EQ(fc.tokens() + in_flight, 64u);
    }
}

// ---- Retry buffer ------------------------------------------------------------

TEST(RetryBufferTest, SequenceNumbersWrapAt8)
{
    RetryBuffer buf(32);
    for (int i = 0; i < 20; ++i) {
        const std::uint8_t seq =
            buf.push(static_cast<std::uint64_t>(i), 2);
        EXPECT_EQ(seq, i % 8);
    }
}

TEST(RetryBufferTest, AcknowledgeReleasesInOrder)
{
    RetryBuffer buf(8);
    for (int i = 0; i < 5; ++i)
        buf.push(i, 1);
    EXPECT_EQ(buf.occupancy(), 5u);
    // Ack through the third packet (pointers 0,1,2).
    EXPECT_EQ(buf.acknowledge(2), 3u);
    EXPECT_EQ(buf.occupancy(), 2u);
    EXPECT_EQ(buf.acknowledge(4), 2u);
    EXPECT_EQ(buf.occupancy(), 0u);
}

TEST(RetryBufferTest, PointerWraparound)
{
    RetryBuffer buf(4);
    // Push/ack 300 packets: pointers wrap the 8-bit space.
    for (int i = 0; i < 300; ++i) {
        buf.push(i, 1);
        EXPECT_EQ(buf.acknowledge(buf.lastPointer()), 1u);
    }
    EXPECT_EQ(buf.occupancy(), 0u);
}

TEST(RetryBufferTest, RetryReplaysFromFailurePointOnward)
{
    RetryBuffer buf(8);
    std::uint8_t seqs[5];
    for (int i = 0; i < 5; ++i)
        seqs[i] = buf.push(100 + i, 2);
    // Packet 2 failed CRC: replay 2, 3, 4 in order.
    const auto replay = buf.retryFrom(seqs[2]);
    ASSERT_EQ(replay.size(), 3u);
    EXPECT_EQ(replay[0].packetId, 102u);
    EXPECT_EQ(replay[1].packetId, 103u);
    EXPECT_EQ(replay[2].packetId, 104u);
    EXPECT_EQ(buf.retransmissions(), 3u);
    // The entries stay buffered until acknowledged.
    EXPECT_EQ(buf.occupancy(), 5u);
}

TEST(RetryBufferTest, FullBufferBlocksTransmit)
{
    RetryBuffer buf(2);
    buf.push(0, 1);
    buf.push(1, 1);
    EXPECT_FALSE(buf.hasSpace());
    buf.acknowledge(buf.lastPointer());
    EXPECT_TRUE(buf.hasSpace());
}

TEST(RetryBufferTest, RejectsBadDepths)
{
    EXPECT_DEATH(RetryBuffer buf(0), "1..255");
    EXPECT_DEATH(RetryBuffer buf(256), "1..255");
}

/** End-to-end protocol exchange: transmitter + receiver over a lossy
 *  wire; every packet must arrive exactly once, in order, and token
 *  accounting must balance throughout. */
TEST(LinkProtocol, LossyExchangeDeliversInOrderExactlyOnce)
{
    Xoshiro256StarStar rng(77);
    TokenFlowControl tokens(64);
    RetryBuffer retry(16);

    // The test's own mirror of what is unacknowledged on the wire.
    std::deque<RetryEntry> in_flight;
    std::vector<std::uint64_t> delivered;
    std::uint64_t next_to_send = 0;
    const std::uint64_t total = 500;

    while (delivered.size() < total) {
        // Transmit while tokens and retry space allow.
        while (next_to_send < total && retry.hasSpace() &&
               tokens.consume(2)) {
            const std::uint8_t seq = retry.push(next_to_send, 2);
            in_flight.push_back({next_to_send, seq, 2});
            ++next_to_send;
        }
        ASSERT_FALSE(in_flight.empty());
        const RetryEntry head = in_flight.front();

        if (rng.nextDouble() < 0.15) {
            // CRC failure on the oldest packet: go-back-N. The retry
            // buffer must offer exactly the unacknowledged window, in
            // order, starting at the failed sequence number.
            const auto replay = retry.retryFrom(head.seq);
            ASSERT_EQ(replay.size(), retry.occupancy());
            ASSERT_EQ(replay.front().packetId, head.packetId);
            for (std::size_t i = 0; i < replay.size(); ++i)
                ASSERT_EQ(replay[i].packetId, in_flight[i].packetId);
            continue; // resent; next iteration delivers it
        }

        // Clean delivery of the oldest packet: receiver returns its
        // tokens and acknowledges via the head's retry pointer
        // (lastPointer minus the younger in-flight packets, 8-bit
        // wrap-aware).
        delivered.push_back(head.packetId);
        const std::uint8_t head_ptr = static_cast<std::uint8_t>(
            retry.lastPointer() -
            static_cast<std::uint8_t>(retry.occupancy() - 1));
        ASSERT_EQ(retry.acknowledge(head_ptr), 1u);
        tokens.returnTokens(2);
        in_flight.pop_front();

        // Token conservation at every step.
        ASSERT_EQ(tokens.tokens() + 2 * in_flight.size(), 64u);
    }

    ASSERT_EQ(delivered.size(), total);
    for (std::uint64_t i = 0; i < total; ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_GT(retry.retransmissions(), 0u);
}

} // namespace
} // namespace hmcsim
