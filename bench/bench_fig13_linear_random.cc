/**
 * @file
 * Fig. 13 reproduction: read-only bandwidth for linear vs random
 * addressing across request sizes, for 16-vault and 1-vault patterns,
 * plus the open-page DDR baseline contrast of Sec. IV-D.
 *
 * Paper shapes to reproduce:
 *  - with the closed-page policy, linear and random bandwidth are
 *    nearly identical (random marginally ahead: fewer conflicts on
 *    shared resources);
 *  - bandwidth grows from 16 B to 128 B requests (packet overhead
 *    amortization and 32 B DRAM bus efficiency);
 *  - on an open-page DDR channel, linear traffic wins big through
 *    row-buffer hits -- the locality advantage HMC deliberately gives
 *    up (closed page, 256 B rows).
 */

#include <benchmark/benchmark.h>

#include "analysis/closed_loop.hh"
#include "bench_common.hh"
#include "sim/logging.hh"

namespace
{

using namespace hmcsim;
using namespace hmcsim::benchutil;

constexpr Bytes sizes[] = {128, 112, 96, 80, 64, 48, 32, 16};

struct Fig13Results
{
    // [pattern 0=16v,1=1v][mode 0=linear,1=random][size]
    double gbps[2][2][8];
    ClosedLoopResult ddrLinear, ddrRandom;
};

const Fig13Results &
results()
{
    static const Fig13Results r = [] {
        Fig13Results out{};
        const AccessPattern pats[2] = {vaultPattern(defaultMapper(), 16),
                                       vaultPattern(defaultMapper(), 1)};
        for (int p = 0; p < 2; ++p) {
            for (int mode = 0; mode < 2; ++mode) {
                for (int s = 0; s < 8; ++s) {
                    out.gbps[p][mode][s] =
                        measure(pats[p], RequestMix::ReadOnly, sizes[s],
                                mode == 0 ? AddressingMode::Linear
                                          : AddressingMode::Random)
                            .rawGBps;
                }
            }
        }
        // Baseline: a DDR4 DIMM (a vault with the open-page DDR4
        // engine), 64 B requests at modest concurrency (8 in flight)
        // so row-buffer locality matters.
        const VaultConfig ddr = ddr4DimmVault();
        out.ddrLinear = measureClosedLoop(ddr, true, 64, 8, 200000);
        out.ddrRandom = measureClosedLoop(ddr, false, 64, 8, 200000);
        return out;
    }();
    return r;
}

void
printFigure()
{
    const Fig13Results &r = results();
    std::printf("\nFig. 13: HMC bandwidth for random vs linear "
                "read-only requests (closed page)\n\n");
    std::vector<std::string> headers = {"Pattern", "Mode"};
    for (Bytes s : sizes)
        headers.push_back(strfmt("%lluB",
                                 static_cast<unsigned long long>(s)));
    TextTable table(std::move(headers));
    const char *pat_names[2] = {"16 vaults", "1 vault"};
    const char *mode_names[2] = {"linear", "random"};
    for (int p = 0; p < 2; ++p) {
        for (int mode = 0; mode < 2; ++mode) {
            std::vector<std::string> row = {pat_names[p],
                                            mode_names[mode]};
            for (int s = 0; s < 8; ++s)
                row.push_back(strfmt("%.1f", r.gbps[p][mode][s]));
            table.addRow(std::move(row));
        }
    }
    table.print();

    std::printf("\nBaseline contrast (open-page DDR4-like channel, "
                "64 B reads):\n");
    std::printf("  linear: %.1f GB/s, row-hit rate %.0f%%, "
                "avg latency %.0f ns\n",
                r.ddrLinear.gbps, r.ddrLinear.rowHitRate * 100.0,
                r.ddrLinear.avgLatencyNs);
    std::printf("  random: %.1f GB/s, row-hit rate %.0f%%, "
                "avg latency %.0f ns\n",
                r.ddrRandom.gbps, r.ddrRandom.rowHitRate * 100.0,
                r.ddrRandom.avgLatencyNs);
    std::printf("\nHMC linear/random ratio at 128 B (16 vaults): %.3f "
                "(paper ~1); DDR linear/random: %.2f (open-page "
                "locality)\n\n",
                r.gbps[0][0][0] / r.gbps[0][1][0],
                r.ddrLinear.gbps / r.ddrRandom.gbps);
}

void
BM_Fig13_LinearRandom(benchmark::State &state)
{
    const Fig13Results &r = results();
    for (auto _ : state)
        benchmark::DoNotOptimize(&r);
    state.counters["hmc_linear_128B"] = r.gbps[0][0][0];
    state.counters["hmc_random_128B"] = r.gbps[0][1][0];
    state.counters["hmc_random_16B"] = r.gbps[0][1][7];
    state.counters["ddr_linear_over_random"] =
        r.ddrLinear.gbps / r.ddrRandom.gbps;
}
BENCHMARK(BM_Fig13_LinearRandom);

} // namespace

int
main(int argc, char **argv)
{
    hmcsim::setInformEnabled(false);
    printFigure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
