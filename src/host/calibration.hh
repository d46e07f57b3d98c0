/**
 * @file
 * Calibration constants of the FPGA-side HMC controller model.
 *
 * The latency constants follow the paper's own deconstruction of the
 * Micron HMC controller (Fig. 14, Sec. IV-E1): at 187.5 MHz, up to 54
 * cycles (~287 ns) are spent on the TX path and ~260 ns on the RX
 * path, so ~547 ns of every measured round trip is FPGA
 * infrastructure.
 *
 * The bandwidth constants derate the raw 30 GB/s per direction to
 * what the AC-510 achieves in the paper's measurements:
 *
 *  - TX injection: the FPGA controller datapath feeds each link at
 *    ~7.5 GB/s of packet bytes. This makes write-only 128 B traffic
 *    top out near 14-15 GB/s raw and read-modify-write near 27 GB/s
 *    (Fig. 7; rw counts both transaction directions and is, like wo,
 *    TX-bound, which is why rw lands at roughly double wo).
 *  - RX accept: responses are deserialized, verified, and routed at
 *    ~10.5 GB/s per link with a per-packet cost equivalent to 24 B.
 *    This yields read-only raw bandwidth of ~20-22 GB/s at 128 B and
 *    the Fig. 8 behavior that bandwidth is nearly flat across request
 *    sizes while requests/second roughly double from 128 B to 32 B.
 */

#ifndef HMCSIM_HOST_CALIBRATION_HH
#define HMCSIM_HOST_CALIBRATION_HH

#include "link/link.hh"
#include "sim/clocked.hh"
#include "sim/types.hh"

namespace hmcsim
{

/** All tunable constants of the controller model. */
struct ControllerCalibration
{
    /** FPGA user-clock period (187.5 MHz). */
    Tick fpgaCyclePs = 5333;

    // TX-path pipeline stages, in FPGA cycles (Fig. 14 numbering).
    unsigned flitsToParallelCycles = 10; ///< Stage 2: to-flit buffering.
    unsigned arbiterCycles = 4;          ///< Stage 3: 2-9 in hardware.
    unsigned seqFlowCrcCycles = 10;      ///< Stages 4-6.
    unsigned serdesConvertCycles = 10;   ///< Stages 7-8 conversion.

    /** Board trace + SerDes flight + cube-side deserialize (TX). */
    Tick txPropagation = nsToTicks(85.0);
    /** Cube-to-FPGA flight + transceiver latency (RX). */
    Tick rxPropagation = nsToTicks(40.0);

    /** RX fixed pipeline (deserialize, verify CRC/seq, route back),
     *  in FPGA cycles. */
    unsigned rxFixedCycles = 30;
    /** Additional RX latency per response flit (reassembly). */
    Tick rxPerFlit = nsToTicks(5.0);

    /** Effective FPGA->HMC packet-byte rate per link. */
    double txBytesPerSecondPerLink = 7.5e9;
    /** Effective HMC->FPGA packet-byte rate per link. */
    double rxBytesPerSecondPerLink = 10.5e9;
    /** Per-packet link-layer cost on the TX wire. */
    Bytes txPerPacketOverheadBytes = 8;
    /** Per-packet deserialize/verify cost on the RX side. */
    Bytes rxPerPacketOverheadBytes = 24;

    /** Number of external links (AC-510: two half-width @15 Gbps). */
    unsigned numLinks = 2;
    /** Lane bit error rate (0 = clean lanes; >0 exercises the
     *  link-level CRC + retry-buffer machinery). */
    double bitErrorRate = 0.0;
    /**
     * Cube input-buffer size in flits for token-based flow control
     * (per link). 0 = unlimited (the calibrated default: the 9x64
     * tag pools bound outstanding traffic well below any realistic
     * buffer). Non-zero engages the request flow-control unit's stop
     * signal (Fig. 14 stage 5): requests wait in the controller when
     * the cube has no buffer space.
     */
    unsigned inputBufferFlits = 0;

    /** Fixed TX pipeline latency in ticks (stages 2-8). The cycle
     *  counts are summed as ticks, so four 32-bit counts cannot wrap;
     *  calibrationError() bounds them so the product fits. */
    Tick
    txFixedLatency() const
    {
        return fpgaCyclePs *
               (Tick{flitsToParallelCycles} + arbiterCycles +
                seqFlowCrcCycles + serdesConvertCycles);
    }

    /** Fixed RX pipeline latency in ticks. */
    Tick
    rxFixedLatency() const
    {
        return fpgaCyclePs * rxFixedCycles;
    }

    /** LinkConfig for the TX direction of one link. */
    LinkConfig
    txLinkConfig() const
    {
        LinkConfig cfg;
        cfg.numLinks = numLinks;
        cfg.lanesPerLink = 8;
        cfg.gbpsPerLane = 15.0;
        cfg.protocolEfficiency =
            txBytesPerSecondPerLink / cfg.rawLinkBytesPerSecond();
        cfg.perPacketOverheadBytes = txPerPacketOverheadBytes;
        cfg.bitErrorRate = bitErrorRate;
        return cfg;
    }

    /** LinkConfig for the RX direction of one link. */
    LinkConfig
    rxLinkConfig() const
    {
        LinkConfig cfg;
        cfg.numLinks = numLinks;
        cfg.lanesPerLink = 8;
        cfg.gbpsPerLane = 15.0;
        cfg.protocolEfficiency =
            rxBytesPerSecondPerLink / cfg.rawLinkBytesPerSecond();
        cfg.perPacketOverheadBytes = rxPerPacketOverheadBytes;
        cfg.bitErrorRate = bitErrorRate;
        return cfg;
    }
};

} // namespace hmcsim

#endif // HMCSIM_HOST_CALIBRATION_HH
