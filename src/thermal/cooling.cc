#include "thermal/cooling.hh"

#include "sim/logging.hh"

namespace hmcsim
{

const std::array<CoolingConfig, 4> &
coolingConfigs()
{
    // Idle temperatures, fan settings, and cooling powers are the
    // paper's measured/computed values (Table III, Sec. IV-C). The
    // thermal resistances are our model fit: they grow as airflow
    // weakens and are tuned so the Fig. 9 / Fig. 11 temperature-vs-
    // bandwidth slopes and the observed failure set are reproduced.
    static const std::array<CoolingConfig, 4> configs = {{
        {"Cfg1", 12.0, 0.36, 45.0, 43.1, 19.32, 1.00},
        {"Cfg2", 10.0, 0.29, 90.0, 51.7, 15.90, 1.60},
        {"Cfg3", 6.5, 0.14, 90.0, 62.3, 13.90, 1.70},
        {"Cfg4", 6.0, 0.13, 135.0, 71.6, 10.78, 2.20},
    }};
    return configs;
}

bool
validCoolingIndex(unsigned index_1_based)
{
    return index_1_based >= 1 && index_1_based <= coolingConfigs().size();
}

const CoolingConfig &
coolingConfig(unsigned index_1_based)
{
    if (!validCoolingIndex(index_1_based))
        fatal("cooling config index must be 1..4 (got %u)", index_1_based);
    return coolingConfigs()[index_1_based - 1];
}

} // namespace hmcsim
