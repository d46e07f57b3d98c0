/**
 * @file
 * The one field list of ExperimentConfig: codeConfig() names every
 * field once, in order, as calls on a codec with KvWriter's calls
 * (runner/kv_codec.hh). KvWriter and KvReader run it as the wire codec
 * (dist/wire.hh) and runner/config_digest.cc hashes it, so a field
 * added here is carried, checked and digested with no second edit.
 */

#ifndef HMCSIM_RUNNER_CONFIG_FIELDS_HH
#define HMCSIM_RUNNER_CONFIG_FIELDS_HH

#include <cstdint>
#include <string_view>
#include <utility>

#include "host/experiment.hh"
#include "runner/kv_codec.hh"

namespace hmcsim
{

/** Every DramTimings field, in list order. */
inline constexpr std::pair<const char *, std::uint64_t DramTimings::*>
    kTimingFields[] = {
        {"tRcd", &DramTimings::tRcd},   {"tCl", &DramTimings::tCl},
        {"tRp", &DramTimings::tRp},     {"tRas", &DramTimings::tRas},
        {"tWr", &DramTimings::tWr},     {"tCcd", &DramTimings::tCcd},
        {"tBeat", &DramTimings::tBeat},
        {"beatBytes", &DramTimings::beatBytes},
        {"rowBytes", &DramTimings::rowBytes},
        {"tRefi", &DramTimings::tRefi}, {"tRfc", &DramTimings::tRfc},
};

template <typename Codec, typename Timings>
bool
codeTimings(Codec &io, std::string_view prefix, Timings &t)
{
    for (const auto &[name, member] : kTimingFields)
        if (!io.field({prefix, name}, t.*member))
            return false;
    return true;
}

/** Walk every field of @p cfg through @p io (Config is const for the
 *  writer and the digest, mutable for the reader); false stops it. */
template <typename Codec, typename Config>
bool
codeConfig(Codec &io, Config &cfg)
{
    auto &p = cfg.pattern;
    auto &s = cfg.device.structure;
    auto &v = cfg.device.vault;
    auto &b = v.backend;
    auto &d = cfg.device;
    auto &c = cfg.controller;
    return io.key("pattern.name") && io.escaped(p.name) && io.endLine() &&
           io.field("pattern.mask", p.mask) &&
           io.field("pattern.antiMask", p.antiMask) &&
           io.field("pattern.vaultSpan", p.vaultSpan) &&
           io.field("pattern.bankSpan", p.bankSpan) &&
           io.field("mix", cfg.mix, RequestMix::Atomic) &&
           io.field("requestSize", cfg.requestSize) &&
           io.field("mode", cfg.mode, AddressingMode::Linear) &&
           io.field("numPorts", cfg.numPorts) &&
           io.field("warmup", cfg.warmup) &&
           io.field("measure", cfg.measure) &&
           io.field("seed", cfg.seed) &&
           io.key("structure.name") && io.escaped(s.name) && io.endLine() &&
           io.field("structure.capacity", s.capacity) &&
           io.field("structure.numDramLayers", s.numDramLayers) &&
           io.field("structure.dramLayerGbits", s.dramLayerGbits) &&
           io.field("structure.numQuadrants", s.numQuadrants) &&
           io.field("structure.numVaults", s.numVaults) &&
           io.field("structure.partitionsPerLayer", s.partitionsPerLayer) &&
           io.field("structure.banksPerPartition", s.banksPerPartition) &&
           io.field("vault.numBanks", v.numBanks) &&
           codeTimings(io, "vault.timings.", v.timings) &&
           io.field("vault.policy", v.policy, PagePolicy::Open) &&
           io.field("vault.controllerLatency", v.controllerLatency) &&
           io.field("vault.commandBeats", v.commandBeats) &&
           io.field("vault.atomicLatency", v.atomicLatency) &&
           io.field("vault.refreshEnabled", v.refreshEnabled) &&
           io.field("vault.refreshMultiplier", v.refreshMultiplier) &&
           io.field("backend.kind", b.kind, BackendKind::Nvm) &&
           codeTimings(io, "backend.ddrTimings.", b.ddrTimings) &&
           io.field("backend.ddrPolicy", b.ddrPolicy, PagePolicy::Open) &&
           io.field("backend.ddrBusBytesPerSecond",
                    b.ddrBusBytesPerSecond) &&
           io.field("backend.ddrTFaw", b.ddrTFaw) &&
           io.field("backend.ddrActivatesPerFaw", b.ddrActivatesPerFaw) &&
           io.field("backend.nvmReadLatency", b.nvmReadLatency) &&
           io.field("backend.nvmWriteLatency", b.nvmWriteLatency) &&
           io.field("backend.nvmWriteAck", b.nvmWriteAck) &&
           io.field("backend.nvmWriteQueueDepth", b.nvmWriteQueueDepth) &&
           io.field("device.maxBlock", d.maxBlock, MaxBlockSize::B128) &&
           io.check(validMaxBlock(d.maxBlock)) &&
           io.field("device.mapping", d.mapping,
                    MappingScheme::ContiguousVault) &&
           io.field("device.quadrantLocalLatency", d.quadrantLocalLatency) &&
           io.field("device.quadrantHopLatency", d.quadrantHopLatency) &&
           io.field("device.responsePathLatency", d.responsePathLatency) &&
           io.field("controller.fpgaCyclePs", c.fpgaCyclePs) &&
           io.field("controller.flitsToParallelCycles",
                    c.flitsToParallelCycles) &&
           io.field("controller.arbiterCycles", c.arbiterCycles) &&
           io.field("controller.seqFlowCrcCycles", c.seqFlowCrcCycles) &&
           io.field("controller.serdesConvertCycles",
                    c.serdesConvertCycles) &&
           io.field("controller.txPropagation", c.txPropagation) &&
           io.field("controller.rxPropagation", c.rxPropagation) &&
           io.field("controller.rxFixedCycles", c.rxFixedCycles) &&
           io.field("controller.rxPerFlit", c.rxPerFlit) &&
           io.field("controller.txBytesPerSecondPerLink",
                    c.txBytesPerSecondPerLink) &&
           io.field("controller.rxBytesPerSecondPerLink",
                    c.rxBytesPerSecondPerLink) &&
           io.field("controller.txPerPacketOverheadBytes",
                    c.txPerPacketOverheadBytes) &&
           io.field("controller.rxPerPacketOverheadBytes",
                    c.rxPerPacketOverheadBytes) &&
           io.field("controller.numLinks", c.numLinks) &&
           io.field("controller.bitErrorRate", c.bitErrorRate) &&
           io.field("controller.inputBufferFlits", c.inputBufferFlits);
}

} // namespace hmcsim

#endif // HMCSIM_RUNNER_CONFIG_FIELDS_HH
