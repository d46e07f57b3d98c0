/**
 * @file
 * Fork determinism: a simulator snapshotted after warm-up and forked
 * per sweep point must be indistinguishable -- bit for bit -- from
 * cold-starting every point. Covers the three vault backends, serial
 * vs pooled sweeps, composition with the result cache, invariant
 * checkers across a snapshot/restore cycle, concurrent forks of one
 * warm module (the TSan job runs this binary on the runner thread
 * pool), a fork that outlives its source (the ASan job turns any
 * pointer left into the source into a use-after-free), and the
 * refusal to fork a pending lambda.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/store.hh"
#include "host/experiment.hh"
#include "runner/config_digest.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"

namespace hmcsim
{
namespace
{

ExperimentConfig
smallConfig(BackendKind kind, RequestMix mix = RequestMix::ReadModifyWrite)
{
    ExperimentConfig cfg;
    cfg.mix = mix;
    cfg.numPorts = 3;
    cfg.warmup = 20 * tickUs;
    cfg.measure = 40 * tickUs;
    cfg.seed = 99;
    cfg.device.vault.backend.kind = kind;
    return cfg;
}

/** A cold run of @p cfg and a run from @p warm must agree exactly. */
void
expectForkMatchesCold(const WarmStart &warm, const ExperimentConfig &cfg)
{
    RunArtifacts cold_art;
    const MeasurementResult cold = runExperiment(cfg, {}, &cold_art);

    RunArtifacts fork_art;
    const MeasurementResult forked =
        runExperimentFrom(warm, cfg, &fork_art);

    EXPECT_EQ(cold_art.statDigest, fork_art.statDigest);
    EXPECT_EQ(cold.rawGBps, forked.rawGBps);
    EXPECT_EQ(cold.mrps, forked.mrps);
    EXPECT_EQ(cold.readLatencyNs.count(), forked.readLatencyNs.count());
    EXPECT_EQ(cold.readLatencyNs.mean(), forked.readLatencyNs.mean());
    EXPECT_EQ(cold.readLatencyP99Ns, forked.readLatencyP99Ns);
}

/** Cold and warm-start runs of @p cfg must agree exactly. */
void
expectForkMatchesCold(const ExperimentConfig &cfg)
{
    expectForkMatchesCold(prepareWarmStart(cfg), cfg);
}

TEST(SnapshotFork, HmcDramForkMatchesColdStart)
{
    expectForkMatchesCold(smallConfig(BackendKind::HmcDram));
}

TEST(SnapshotFork, Ddr4ForkMatchesColdStart)
{
    expectForkMatchesCold(smallConfig(BackendKind::Ddr4));
}

TEST(SnapshotFork, NvmForkMatchesColdStart)
{
    expectForkMatchesCold(
        smallConfig(BackendKind::Nvm, RequestMix::WriteOnly));
}

TEST(SnapshotFork, ForkHoldingReservedIssueAttemptsMatchesColdStart)
{
    // A saturated warm-up ends with ports out of tags or credits,
    // holding the queue key of their next attempt instead of an event
    // (GupsPort::issueOne). The fork must carry those keys.
    for (const auto &[kind, mix] :
         {std::pair{BackendKind::HmcDram, RequestMix::ReadModifyWrite},
          std::pair{BackendKind::Ddr4, RequestMix::ReadOnly},
          std::pair{BackendKind::Nvm, RequestMix::WriteOnly}}) {
        const ExperimentConfig cfg = smallConfig(kind, mix);
        const WarmStart warm = prepareWarmStart(cfg);
        unsigned reserving = 0;
        for (unsigned p = 0; p < warm.module->numPorts(); ++p)
            reserving += warm.module->port(p).issueReserved();
        EXPECT_GT(reserving, 0u) << static_cast<int>(kind);
        expectForkMatchesCold(warm, cfg);
    }
}

TEST(SnapshotFork, ForkOutlivesItsSource)
{
    // The fork holds nothing of its source: destroy the warm module,
    // then run the fork's measure window.
    for (const auto &[kind, mix] :
         {std::pair{BackendKind::HmcDram, RequestMix::ReadModifyWrite},
          std::pair{BackendKind::Ddr4, RequestMix::ReadModifyWrite},
          std::pair{BackendKind::Nvm, RequestMix::WriteOnly}}) {
        const ExperimentConfig cfg = smallConfig(kind, mix);
        RunArtifacts cold;
        runExperiment(cfg, {}, &cold);

        std::unique_ptr<Ac510Module> fork;
        {
            const WarmStart warm = prepareWarmStart(cfg);
            fork = warm.module->fork();
        }
        StatRegistry registry;
        fork->registerStats(registry, StatPath("system"));
        fork->resetPortStats();
        fork->runUntil(cfg.warmup + cfg.measure);
        EXPECT_EQ(registry.digest(), cold.statDigest)
            << "backend " << backendName(kind);
    }
}

TEST(SnapshotForkDeathTest, PendingLambdaRefusesFork)
{
    // Only receiver events copy; a lambda may hold pointers into its
    // simulator, so forking with one pending aborts and names it.
    const ExperimentConfig cfg = smallConfig(BackendKind::HmcDram);
    Ac510Module module(makeSystemConfig(cfg));
    module.start();
    module.runUntil(tickUs);
    module.queue().schedule(module.queue().now() + 1, [] {});
    EXPECT_DEATH(module.fork(), "cannot copy a pending .*lambda");
}

TEST(SnapshotFork, OneWarmupServesManyMeasureWindows)
{
    // The warm-start use case: one warm-up, several measurement
    // windows, each bit-identical to its own cold run.
    ExperimentConfig base = smallConfig(BackendKind::HmcDram);
    const WarmStart warm = prepareWarmStart(base);
    for (const Tick measure :
         {10 * tickUs, 30 * tickUs, 60 * tickUs}) {
        ExperimentConfig cfg = base;
        cfg.measure = measure;
        RunArtifacts cold_art, fork_art;
        const MeasurementResult cold =
            runExperiment(cfg, {}, &cold_art);
        const MeasurementResult forked =
            runExperimentFrom(warm, cfg, &fork_art);
        EXPECT_EQ(cold_art.statDigest, fork_art.statDigest)
            << "measure " << measure;
        EXPECT_EQ(cold.mrps, forked.mrps);
    }
}

TEST(SnapshotFork, WarmupDigestSeparatesWarmupsOnly)
{
    const ExperimentConfig base = smallConfig(BackendKind::HmcDram);
    ExperimentConfig other_measure = base;
    other_measure.measure = base.measure * 2;
    EXPECT_EQ(warmupDigest(base), warmupDigest(other_measure));

    ExperimentConfig other_seed = base;
    other_seed.seed = base.seed + 1;
    EXPECT_NE(warmupDigest(base), warmupDigest(other_seed));

    ExperimentConfig other_mix = base;
    other_mix.mix = RequestMix::ReadOnly;
    EXPECT_NE(warmupDigest(base), warmupDigest(other_mix));

    // And the measure window still matters for the full identity.
    EXPECT_NE(configDigest(base), configDigest(other_measure));
}

/** Axes whose points share warm-ups (same seed, measure-only axis). */
SweepAxes
warmableAxes(BackendKind kind)
{
    SweepAxes axes;
    axes.base = smallConfig(kind);
    axes.base.warmup = 15 * tickUs;
    axes.measures = {10 * tickUs, 20 * tickUs, 30 * tickUs,
                     40 * tickUs};
    axes.mixes = {RequestMix::ReadOnly, RequestMix::ReadModifyWrite};
    return axes;
}

std::vector<std::uint64_t>
sweepDigests(const SweepAxes &axes, bool warm_start, unsigned jobs,
             ResultCache *cache = nullptr)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.warmStart = warm_start;
    opts.deriveSeeds = false; // measure-axis sharing needs same seeds
    opts.cache = cache;
    SweepRunner runner(opts);
    const std::vector<SweepPointResult> results = runner.run(axes);
    std::vector<std::uint64_t> digests;
    for (const SweepPointResult &point : results)
        digests.push_back(point.statDigest);
    return digests;
}

TEST(SnapshotFork, WarmSweepMatchesColdSweepAllBackends)
{
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        const SweepAxes axes = warmableAxes(kind);
        const auto cold = sweepDigests(axes, false, 1);
        const auto warm = sweepDigests(axes, true, 1);
        ASSERT_EQ(cold, warm)
            << "backend " << static_cast<int>(kind);
    }
}

TEST(SnapshotFork, WarmSweepIsJobsInvariant)
{
    const SweepAxes axes = warmableAxes(BackendKind::HmcDram);
    const auto serial = sweepDigests(axes, true, 1);
    const auto pooled = sweepDigests(axes, true, 8);
    EXPECT_EQ(serial, pooled);
}

TEST(SnapshotFork, WarmSweepComposesWithResultCache)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "hmcsim_fork_cache";
    std::filesystem::remove_all(dir);
    SharedResultStore store({dir.string(), 300});
    ResultCache cache(store);
    const SweepAxes axes = warmableAxes(BackendKind::HmcDram);

    const auto cold = sweepDigests(axes, false, 2);
    const auto warm_fill = sweepDigests(axes, true, 2, &cache);
    EXPECT_EQ(cold, warm_fill);

    // Second pass through a fresh cache: every point served from the
    // store, same digests.
    ResultCache reread(store);
    SweepOptions opts;
    opts.jobs = 2;
    opts.warmStart = true;
    opts.deriveSeeds = false;
    opts.cache = &reread;
    SweepRunner runner(opts);
    const auto results = runner.run(axes);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].fromCache) << i;
        EXPECT_EQ(results[i].statDigest, cold[i]) << i;
    }
    EXPECT_EQ(store.counters().hits, results.size());
    std::filesystem::remove_all(dir);
}

TEST(SnapshotFork, CheckersHoldAcrossSnapshotRestore)
{
    // Satellite: the invariant checkers -- including NVM endurance
    // and drain conservation -- must hold on a restored twin, both
    // immediately after the fork and while it keeps running.
    ExperimentConfig cfg =
        smallConfig(BackendKind::Nvm, RequestMix::WriteOnly);
    const WarmStart warm = prepareWarmStart(cfg);

    auto fork = warm.module->fork();
    fork->enableInvariantChecks(16);
    fork->runUntil(cfg.warmup + cfg.measure);

    // And the source it was cloned from is untouched: running it
    // forward produces the digest a never-forked run produces.
    StatRegistry registry;
    warm.module->registerStats(registry, StatPath("system"));
    warm.module->resetPortStats();
    warm.module->runUntil(cfg.warmup + cfg.measure);
    RunArtifacts cold_art;
    runExperiment(cfg, {}, &cold_art);
    EXPECT_EQ(registry.digest(), cold_art.statDigest);
}

TEST(SnapshotFork, ConcurrentForksOfOneWarmModule)
{
    // fork() is read-only on the source: many threads forking (and
    // running) copies of one quiescent warm module must neither race
    // (TSan job) nor diverge.
    const ExperimentConfig cfg = smallConfig(BackendKind::HmcDram);
    const WarmStart warm = prepareWarmStart(cfg);
    RunArtifacts reference;
    runExperiment(cfg, {}, &reference);

    constexpr int numThreads = 4;
    std::vector<std::uint64_t> digests(numThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < numThreads; ++i) {
        threads.emplace_back([&, i] {
            RunArtifacts art;
            runExperimentFrom(warm, cfg, &art);
            digests[static_cast<std::size_t>(i)] = art.statDigest;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::uint64_t digest : digests)
        EXPECT_EQ(digest, reference.statDigest);
}

} // namespace
} // namespace hmcsim
