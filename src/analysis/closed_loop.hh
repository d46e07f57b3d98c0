/**
 * @file
 * Closed-loop measurement of one vault, and the DDR4 DIMM as a vault.
 *
 * The paper contrasts HMC's closed-page vaults with conventional
 * open-page DIMMs (Secs. I, II-C, IV-D). A DIMM channel is a vault
 * controller with the DDR4 storage engine behind it (mem/ddr4_backend.hh):
 * the controller charges the fixed controller/PHY latency, the engine
 * maps rows, meters tFAW and times the banks, and the vault data bus is
 * the channel's shared bus. measureClosedLoop drives any vault that way.
 */

#ifndef HMCSIM_ANALYSIS_CLOSED_LOOP_HH
#define HMCSIM_ANALYSIS_CLOSED_LOOP_HH

#include "hmc/vault_controller.hh"
#include "sim/types.hh"

namespace hmcsim
{

/**
 * A DDR4-2400 x64 DIMM channel: 16 banks, 20 ns controller + PHY
 * latency, payload-only bus beats, and the DDR4 engine with its
 * defaults (open page, 1 KB rows, 19.2 GB/s bus, 4 activates per
 * 30 ns). The engine reads backend.ddrTimings/ddrPolicy, not the
 * vault's own timings/policy.
 */
VaultConfig ddr4DimmVault();

/** Outcome of measureClosedLoop. */
struct ClosedLoopResult
{
    double gbps;
    double avgLatencyNs;
    double rowHitRate;
};

/**
 * Keep @p outstanding reads of @p request_size in flight against a
 * fresh vault built from @p vault, issuing each new read when the
 * oldest completes, for @p num_requests reads. Linear addresses stride
 * through a 4 GiB space (one DIMM rank) and wrap; random ones are
 * request-aligned and uniform over it. Reports payload GB/s, mean
 * latency and row-hit rate.
 */
ClosedLoopResult measureClosedLoop(const VaultConfig &vault, bool linear,
                                   Bytes request_size,
                                   unsigned outstanding,
                                   unsigned num_requests);

} // namespace hmcsim

#endif // HMCSIM_ANALYSIS_CLOSED_LOOP_HH
