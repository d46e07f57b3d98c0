// Seeded violation for `deprecated-ddr-entry`: a new caller of the
// standalone DDR baseline entry point instead of selecting the ddr4
// backend through the experiment config. The mention in this comment
// of measureDdrPattern must stay silent.
#include "baseline/ddr_channel.hh"

void
probe(const hmcsim::DdrChannelConfig &ddr)
{
    (void)hmcsim::measureDdrPattern(ddr, true, 64, 8, 1000);
}
