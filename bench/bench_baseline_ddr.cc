/**
 * @file
 * Extension bench: HMC vs a conventional DDR4 channel.
 *
 * The paper's introduction frames HMC against processor-centric
 * DIMM-based memory. This bench makes the trade concrete on our two
 * substrates: a DDR4-2400-like open-page channel (19.2 GB/s peak,
 * large rows, row-buffer locality) vs the simulated HMC (two
 * half-width links, 16 vaults, closed page). Four workload shapes:
 * dense linear streams, random accesses, both at low and high
 * concurrency.
 */

#include <benchmark/benchmark.h>

#include "analysis/closed_loop.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "sim/logging.hh"

namespace
{

using namespace hmcsim;
using namespace hmcsim::benchutil;

struct Row
{
    const char *workload;
    double ddrGBps;
    double ddrLatNs;
    double hmcGBps;
    double hmcLatNs;
};

/** HMC side: replay the matching shape with a bounded window. */
MeasurementResult
hmcRun(bool linear, unsigned ports)
{
    ExperimentConfig cfg;
    cfg.mode = linear ? AddressingMode::Linear : AddressingMode::Random;
    cfg.requestSize = 64;
    cfg.numPorts = ports;
    cfg.measure = 500 * tickUs;
    return runExperiment(cfg);
}

const std::vector<Row> &
results()
{
    static const std::vector<Row> rows = [] {
        std::vector<Row> out;
        const VaultConfig ddr = ddr4DimmVault();

        struct Shape
        {
            const char *name;
            bool linear;
            unsigned ddrOutstanding;
            unsigned hmcPorts;
        };
        const Shape shapes[] = {
            {"linear, low concurrency (4)", true, 4, 1},
            {"random, low concurrency (4)", false, 4, 1},
            {"linear, high concurrency", true, 64, 9},
            {"random, high concurrency", false, 64, 9},
        };
        for (const Shape &shape : shapes) {
            const ClosedLoopResult d = measureClosedLoop(
                ddr, shape.linear, 64, shape.ddrOutstanding, 200000);
            const MeasurementResult h =
                hmcRun(shape.linear, shape.hmcPorts);
            // Compare payload movement: the DDR number is payload-only.
            out.push_back({shape.name, d.gbps, d.avgLatencyNs,
                           h.readPayloadGBps, h.readLatencyNs.mean()});
        }
        return out;
    }();
    return rows;
}

void
printFigure()
{
    std::printf("\nHMC vs DDR4 channel (64 B reads; payload GB/s)\n\n");
    TextTable table({"Workload", "DDR4 GB/s", "DDR4 lat ns",
                     "HMC GB/s", "HMC lat ns"});
    for (const Row &r : results()) {
        table.addRow({r.workload, strfmt("%.1f", r.ddrGBps),
                      strfmt("%.0f", r.ddrLatNs),
                      strfmt("%.1f", r.hmcGBps),
                      strfmt("%.0f", r.hmcLatNs)});
    }
    table.print();

    const auto &rows = results();
    std::printf("\nThe trade the paper describes: DDR wins idle "
                "latency (%.0f vs %.0f ns -- HMC pays ~547 ns of "
                "packet infrastructure) while HMC wins concurrent "
                "bandwidth (%.1f vs %.1f GB/s on high-concurrency "
                "random traffic, %.1fx) by exposing 256-bank "
                "parallelism behind packet-switched links.\n\n",
                rows[1].ddrLatNs, rows[1].hmcLatNs, rows[3].hmcGBps,
                rows[3].ddrGBps, rows[3].hmcGBps / rows[3].ddrGBps);
}

void
BM_BaselineDdr(benchmark::State &state)
{
    const auto &rows = results();
    for (auto _ : state)
        benchmark::DoNotOptimize(&rows);
    state.counters["ddr_random_hi_GBps"] = rows[3].ddrGBps;
    state.counters["hmc_random_hi_GBps"] = rows[3].hmcGBps;
    state.counters["ddr_lat_lo_ns"] = rows[1].ddrLatNs;
    state.counters["hmc_lat_lo_ns"] = rows[1].hmcLatNs;
}
BENCHMARK(BM_BaselineDdr);

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
