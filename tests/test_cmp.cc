/**
 * @file
 * CMP-layer tests: the single-core front against the engine's N=1
 * case, 2-core golden hashes (stable across Debug/Release and
 * runner thread counts), cross-core migration mechanics, mid-flight
 * checkpoint round-trips, and the stacked DRAM (3D) heating path.
 *
 * The single-core Simulator is a front over a 1-core CmpSimulator,
 * so N=1 identity holds by construction and test_golden's
 * single-core goldens pin the loop itself; the N=1 test here checks
 * that the front reports the engine's one job unchanged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

using experiments::hashSimResult;

constexpr std::uint64_t kCycles = 200'000;

CmpSimConfig
cmpConfigFor(int cores, std::vector<std::string> benchmarks)
{
    CmpSimConfig cmp;
    cmp.base = experiments::iqBase();
    cmp.cores = cores;
    cmp.benchmarks = std::move(benchmarks);
    return cmp;
}

/** Aggressive migration knobs so short runs migrate. */
CmpMigrationConfig
eagerMigration()
{
    CmpMigrationConfig mig;
    mig.enabled = true;
    mig.marginK = 400.0; // any tile counts as hot
    mig.minGapK = 0.0;   // any strictly cooler tile accepts
    mig.cooldownIntervals = 2;
    mig.baseStallCycles = 10'000;
    mig.busBytesPerCycle = 64;
    return mig;
}

TEST(Cmp, SingleCoreMatchesSimulatorBitExactly)
{
    for (const char* benchmark : {"art", "mesa"}) {
        Simulator single(experiments::iqBase(),
                         spec2000(benchmark));
        const SimResult expect = single.run(kCycles);

        CmpSimulator cmp(cmpConfigFor(1, {benchmark}));
        const CmpResult got = cmp.run(kCycles);

        ASSERT_EQ(got.cores.size(), 1u);
        EXPECT_TRUE(got.shared.empty());
        EXPECT_EQ(hashSimResult(got.cores[0]),
                  hashSimResult(expect))
            << benchmark
            << ": 1-core CMP diverged from the single-core front";
        EXPECT_EQ(got.cycles, expect.cycles);
    }
}

/** The N=1 floorplan must literally be the single-core one: same
 * blocks, same names, no L2 strip, no prefixes. */
TEST(Cmp, SingleCoreFloorplanIsUnchanged)
{
    CmpSimulator cmp(cmpConfigFor(1, {"eon"}));
    const Floorplan single =
        Floorplan::ev6Like(FloorplanVariant::IqConstrained);
    ASSERT_EQ(cmp.floorplan().numBlocks(), single.numBlocks());
    for (int b = 0; b < single.numBlocks(); ++b) {
        EXPECT_EQ(cmp.floorplan().block(b).name,
                  single.block(b).name);
    }
}

struct CmpGoldenCase
{
    const char* name;
    int cores;
    std::vector<std::string> benchmarks;
    bool migration;
    bool dram;
    std::uint64_t hash;
};

/**
 * Checked-in CMP goldens (TEMPEST_PRINT_GOLDENS=1 re-derives).
 * Cover the 2-core migration sweep and the stacked-DRAM scenario;
 * ci.yml's cmp-smoke job runs this under Debug, Release, and TSan.
 */
const std::vector<CmpGoldenCase>&
cmpGoldens()
{
    static const std::vector<CmpGoldenCase> cases = {
        {"dual_art_mesa", 2, {"art", "mesa"}, false, false,
         0xed82730c0504e414ULL},
        {"dual_art_mesa_migration", 2, {"art", "mesa"}, true,
         false, 0xc48c84254526ce41ULL},
        {"dual_art_dram", 2, {"art", "art"}, false, true,
         0xba5e7c66254d07cbULL},
    };
    return cases;
}

CmpJob
jobFor(const CmpGoldenCase& c)
{
    CmpJob job;
    job.tag = c.name;
    job.config = cmpConfigFor(c.cores, c.benchmarks);
    if (c.migration)
        job.config.migration = eagerMigration();
    job.config.stack.dram = c.dram;
    job.cycles = kCycles;
    return job;
}

TEST(Cmp, GoldenBitIdentity)
{
    const bool print =
        std::getenv("TEMPEST_PRINT_GOLDENS") != nullptr;
    for (const CmpGoldenCase& c : cmpGoldens()) {
        CmpSimulator sim(jobFor(c).config);
        const std::uint64_t got = hashCmpResult(sim.run(kCycles));
        if (print) {
            std::printf("    {\"%s\", ..., 0x%016llxULL},\n",
                        c.name,
                        static_cast<unsigned long long>(got));
            continue;
        }
        EXPECT_EQ(got, c.hash)
            << c.name << ": CmpResult changed (got 0x" << std::hex
            << got << ", golden 0x" << c.hash << std::dec
            << "). If the semantic change is intended, re-derive "
               "with TEMPEST_PRINT_GOLDENS=1 and document it.";
    }
}

/** Job outcomes must not depend on the worker thread count. */
TEST(Cmp, RunCmpJobsIsThreadCountInvariant)
{
    std::vector<CmpJob> jobs;
    for (const CmpGoldenCase& c : cmpGoldens())
        jobs.push_back(jobFor(c));

    const std::vector<CmpJobOutcome> t1 = runCmpJobs(jobs, 1);
    const std::vector<CmpJobOutcome> t2 = runCmpJobs(jobs, 2);
    const std::vector<CmpJobOutcome> t8 = runCmpJobs(jobs, 8);
    ASSERT_EQ(t1.size(), jobs.size());
    ASSERT_EQ(t2.size(), jobs.size());
    ASSERT_EQ(t8.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(t1[i].tag, jobs[i].tag);
        EXPECT_EQ(t1[i].hash, t2[i].hash) << jobs[i].tag;
        EXPECT_EQ(t1[i].hash, t8[i].hash) << jobs[i].tag;
    }
}

TEST(Cmp, MigrationFiresAndPricesTransfer)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();
    CmpSimulator sim(config);
    const CmpResult r = sim.run(kCycles);

    ASSERT_GE(r.migration.migrations, 1u);
    EXPECT_GT(r.migration.bytesMoved, 0u);
    // The migrated context is the engine state only; interval
    // activity counters (skippedCycles among them) stay behind, so
    // the priced byte count is pinned.
    EXPECT_EQ(r.migration.bytesMoved, 4'278'346u);
    // Stall = 2 * (base + bytes/bandwidth) per swap, so the charge
    // must exceed the base cost alone on both endpoints.
    EXPECT_GE(r.migration.migrationStallCycles,
              r.migration.migrations * 2 *
                  config.migration.baseStallCycles);
    // Migration stalls are served as real clock-gated cycles.
    std::uint64_t stall_cycles = 0;
    for (const SimResult& c : r.cores)
        stall_cycles += c.stallCycles;
    EXPECT_GT(stall_cycles, 0u);
    // The placement stays a permutation.
    ASSERT_EQ(r.tileOfJob.size(), 2u);
    EXPECT_NE(r.tileOfJob[0], r.tileOfJob[1]);
}

TEST(Cmp, MigrationDisabledNeverMigrates)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    CmpSimulator sim(config);
    const CmpResult r = sim.run(kCycles);
    EXPECT_EQ(r.migration.migrations, 0u);
    EXPECT_EQ(r.tileOfJob[0], 0);
    EXPECT_EQ(r.tileOfJob[1], 1);
}

/**
 * Checkpoint taken immediately after a migration fired — both
 * endpoints still owe transfer-stall cycles — must restore
 * bit-identically and replay to the same end-of-run hash.
 */
TEST(Cmp, CheckpointRoundTripsMidFlightMigration)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();

    CmpSimulator sim(config);
    bool migrated = false;
    for (int i = 0; i < 200 && !migrated; ++i) {
        sim.stepOnce();
        migrated = sim.migrationStats().migrations >= 1;
    }
    ASSERT_TRUE(migrated)
        << "eager migration never fired within 200 steps";

    const std::string ckpt = sim.saveCheckpoint();
    const std::uint64_t end = sim.cycle() + kCycles;

    sim.runTo(end);
    const std::uint64_t direct = hashCmpResult(sim.result());

    CmpSimulator resumed(config);
    resumed.restoreCheckpoint(ckpt);
    resumed.runTo(end);
    EXPECT_EQ(hashCmpResult(resumed.result()), direct)
        << "mid-flight migration state did not round-trip";
}

/** Piecewise runTo (the checkpoint loop's shape) must replay the
 * same step sequence as one monolithic call. */
TEST(Cmp, PiecewiseRunToMatchesMonolithic)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();

    CmpSimulator mono(config);
    mono.runTo(kCycles);
    const std::uint64_t expect = hashCmpResult(mono.result());

    CmpSimulator piecewise(config);
    piecewise.runTo(kCycles / 4);
    piecewise.runTo(kCycles / 2);
    piecewise.runTo(kCycles);
    EXPECT_EQ(hashCmpResult(piecewise.result()), expect);
}

TEST(Cmp, StackedDramHeatsTheCoreBeneath)
{
    // Lift the DTM threshold out of the way so the comparison sees
    // pure thermal coupling, not stop-go clamping.
    CmpSimConfig cool = cmpConfigFor(1, {"art"});
    cool.base.dtm.maxTemperature = 1000.0;

    CmpSimConfig stacked = cool;
    stacked.stack.dram = true;

    CmpSimulator without(cool);
    const CmpResult base = without.run(kCycles);
    CmpSimulator with(stacked);
    const CmpResult dram = with.run(kCycles);

    ASSERT_EQ(dram.shared.size(), 1u);
    EXPECT_EQ(dram.shared[0].name, "DRAM0");
    EXPECT_GT(dram.shared[0].max, cool.base.thermal.ambient);

    // Every core block sits under the bank; the hottest one must
    // run measurably hotter with the stacked die present.
    Kelvin base_peak = 0.0;
    Kelvin dram_peak = 0.0;
    for (int b = 0; b < 26; ++b) {
        base_peak = std::max(base_peak, base.cores[0].blocks
                                            [static_cast<std::size_t>(
                                                b)].max);
        dram_peak = std::max(dram_peak, dram.cores[0].blocks
                                            [static_cast<std::size_t>(
                                                b)].max);
    }
    EXPECT_GT(dram_peak, base_peak + 0.1);
}

/**
 * Memory-bound workloads on a 3D stack must engage the DTM. The
 * scenario uses a tightened thermal envelope (stacking a die over
 * the cores raises the package resistance, so 3D parts trip DTM at
 * a lower sensor reading): under it, flat art stays clear of the
 * threshold and stacked art — its Dcache sitting beneath a busy
 * DRAM bank — crosses it and draws cooling stalls.
 */
TEST(Cmp, StackedDramTriggersDtmOnMemoryBoundWorkloads)
{
    CmpSimConfig flat = cmpConfigFor(1, {"art"});
    flat.base.dtm.maxTemperature = 335.5; // 3D envelope
    CmpSimConfig stacked = flat;
    stacked.stack.dram = true;

    CmpSimulator flat_sim(flat);
    const CmpResult flat_r = flat_sim.run(kCycles);
    CmpSimulator stacked_sim(stacked);
    const CmpResult stacked_r = stacked_sim.run(kCycles);

    EXPECT_EQ(flat_r.cores[0].dtm.globalStalls, 0u)
        << "flat art should stay under the 3D envelope";
    EXPECT_GT(stacked_r.cores[0].dtm.globalStalls, 0u)
        << "stacked DRAM heat should push art over the envelope";
}

} // namespace
} // namespace tempest
