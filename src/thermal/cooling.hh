/**
 * @file
 * Cooling environment configurations (Table III of the paper).
 *
 * The paper tunes two backplane fans with a DC power supply and places
 * a 15 W commodity fan at 45/90/135 cm to create four thermal
 * environments. Each environment is summarized here by its measured
 * idle HMC heatsink temperature, its computed cooling power, and the
 * effective HMC thermal resistance our lumped model attributes to it.
 */

#ifndef HMCSIM_THERMAL_COOLING_HH
#define HMCSIM_THERMAL_COOLING_HH

#include <array>
#include <string>

#include "sim/types.hh"

namespace hmcsim
{

/** One row of Table III plus derived model parameters. */
struct CoolingConfig
{
    std::string name;
    /** Backplane-fan supply voltage (V). */
    double fanVoltage;
    /** Backplane-fan supply current (A). */
    double fanCurrent;
    /** External 15 W fan distance (cm). */
    double fanDistanceCm;
    /** Measured average HMC idle heatsink temperature (deg C). */
    double idleTemperatureC;
    /**
     * Total cooling power of the configuration (W): backplane fans +
     * distance-derated external fan, as computed in Sec. IV-C
     * (19.32 / 15.9 / 13.9 / 10.78 W for Cfg1..Cfg4).
     */
    double coolingPowerW;
    /**
     * Lumped heatsink-to-air thermal resistance for HMC-generated
     * power (deg C per W). Weaker airflow -> higher resistance.
     */
    double thermalResistance;
};

/** Table III: Cfg1 (strongest cooling) .. Cfg4 (weakest). */
const std::array<CoolingConfig, 4> &coolingConfigs();

/** True iff @p index_1_based names one of coolingConfigs(). */
bool validCoolingIndex(unsigned index_1_based);

/** Access one configuration by its paper name ("Cfg1".."Cfg4"). */
const CoolingConfig &coolingConfig(unsigned index_1_based);

/**
 * Reliable operating bounds (Sec. IV-C): DRAM is assumed reliable to
 * 85 deg C, but the paper measures failures near 75 deg C for
 * workloads with significant write content.
 */
constexpr double readTemperatureLimitC = 85.0;
constexpr double writeTemperatureLimitC = 75.0;

/** The heatsink surface reads 5-10 deg C below the junction. */
constexpr double heatsinkToJunctionOffsetC = 7.5;

} // namespace hmcsim

#endif // HMCSIM_THERMAL_COOLING_HH
