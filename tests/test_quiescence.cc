/**
 * @file
 * Quiescence skipping: OooCore::run(k) must be bit-identical to k
 * calls of tick(), the single-cycle oracle.
 *
 * The differential stress test drives two cores built from the same
 * profile and seed through random cuts: one advances with run(k),
 * the other with k ticks. Between cuts both receive the same random
 * DTM control changes — issue-queue mode toggles, ALU and
 * register-file-copy turnoff, round-robin select, fetch throttling —
 * exactly where the DTM layer applies them (interval boundaries).
 * After every cut the two must agree on every core-side checkpoint
 * byte (the CORE, WKLD, IQIN, IQFP, ALUP, REGF and CACH chunk
 * payloads) and on every ActivityRecord counter except
 * skippedCycles, which only the run() side counts. No golden covers
 * fetch throttling, so this is the guard on the time-based fetch
 * wake-ups (redirect penalty and throttle phase).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "sim/checkpoint/stateio.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "uarch/core.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

/** Every core-side checkpoint payload, in chunk order. */
std::string
coreStateBytes(const OooCore& core)
{
    StateWriter w;
    core.saveState(w);
    core.stream().saveState(w);
    core.intQueue().saveState(w);
    core.fpQueue().saveState(w);
    core.alus().saveState(w);
    core.intRegfile().saveState(w);
    core.caches().saveState(w);
    return w.bytes();
}

/** Every ActivityRecord counter except skippedCycles. */
std::string
activityBytes(ActivityRecord a)
{
    a.skippedCycles = 0;
    StateWriter w;
    saveActivity(w, a);
    return w.bytes();
}

/** Byte equality that reports the first differing offset instead
 * of dumping megabytes of cache state. */
testing::AssertionResult
sameBytes(const std::string& skipped, const std::string& ticked)
{
    if (skipped == ticked)
        return testing::AssertionSuccess();
    std::size_t i = 0;
    while (i < skipped.size() && i < ticked.size() &&
           skipped[i] == ticked[i])
        ++i;
    return testing::AssertionFailure()
           << "first difference at byte " << i << " of "
           << ticked.size() << " (run() side has " << skipped.size()
           << ")";
}

/** The same random DTM control change, applied to both cores. */
void
randomControl(std::mt19937_64& rng, OooCore& a, OooCore& b)
{
    const int num_alus = a.alus().numIntAlus();
    const int copies = a.intRegfile().numCopies();
    switch (rng() % 5) {
    case 0: {
        const bool fp = rng() % 2 != 0;
        (fp ? a.fpQueue() : a.intQueue()).toggleMode();
        (fp ? b.fpQueue() : b.intQueue()).toggleMode();
        break;
    }
    case 1: {
        const int alu = static_cast<int>(rng() % num_alus);
        const bool off = rng() % 2 != 0;
        a.alus().setIntAluOff(alu, TurnoffReason::UnitThermal, off);
        b.alus().setIntAluOff(alu, TurnoffReason::UnitThermal, off);
        break;
    }
    case 2: {
        // Register-file copy turnoff masks the copy's ALUs busy.
        const int copy = static_cast<int>(rng() % copies);
        const bool off = rng() % 2 != 0;
        for (int alu : a.intRegfile().alusOfCopy(copy)) {
            a.alus().setIntAluOff(alu, TurnoffReason::RegfileThermal,
                                  off);
            b.alus().setIntAluOff(alu, TurnoffReason::RegfileThermal,
                                  off);
        }
        break;
    }
    case 3: {
        const bool on = rng() % 2 != 0;
        a.setRoundRobin(on);
        b.setRoundRobin(on);
        break;
    }
    default: {
        const int interval = 1 + static_cast<int>(rng() % 4);
        a.setFetchInterval(interval);
        b.setFetchInterval(interval);
        break;
    }
    }
}

/** Cut lengths: mostly short (every wake-up path near a cut),
 * some long enough to span many misses. */
std::uint64_t
randomCut(std::mt19937_64& rng)
{
    switch (rng() % 4) {
    case 0:
        return 1 + rng() % 8;
    case 1:
    case 2:
        return 1 + rng() % 600;
    default:
        return 1 + rng() % 6000;
    }
}

struct StressOutcome
{
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
};

/** Drive the two cores through `cuts` random cuts; fatal-asserts
 * on the first divergence. */
void
stress(const BenchmarkProfile& profile, std::uint64_t seed, int cuts,
       StressOutcome& out)
{
    PipelineConfig cfg;
    OooCore skipping(cfg, profile, seed);
    OooCore ticking(cfg, profile, seed);
    ActivityRecord sa;
    ActivityRecord ta;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (int cut = 0; cut < cuts; ++cut) {
        if (rng() % 2 != 0)
            randomControl(rng, skipping, ticking);
        const std::uint64_t k = randomCut(rng);
        skipping.run(k, sa);
        for (std::uint64_t c = 0; c < k; ++c)
            ticking.tick(ta);
        ASSERT_EQ(skipping.cycle(), ticking.cycle())
            << profile.name << " cut " << cut;
        ASSERT_TRUE(sameBytes(coreStateBytes(skipping),
                              coreStateBytes(ticking)))
            << profile.name << " cut " << cut << " (k=" << k
            << ", cycle " << ticking.cycle() << ")";
        ASSERT_TRUE(sameBytes(activityBytes(sa), activityBytes(ta)))
            << "activity: " << profile.name << " cut " << cut << " (k=" << k
            << ", cycle " << ticking.cycle() << ")";
    }
    EXPECT_EQ(ta.skippedCycles, 0u); // tick() never skips
    EXPECT_LE(sa.skippedCycles, sa.cycles);
    out = {sa.cycles, sa.skippedCycles};
}

TEST(Quiescence, RunMatchesTickOnArt)
{
    StressOutcome o;
    stress(spec2000("art"), 11, 300, o);
    EXPECT_GT(o.skipped, 0u);
}

TEST(Quiescence, RunMatchesTickOnMcf)
{
    StressOutcome o;
    stress(spec2000("mcf"), 12, 300, o);
    EXPECT_GT(o.skipped, 0u);
}

TEST(Quiescence, RunMatchesTickOnEon)
{
    StressOutcome o;
    stress(spec2000("eon"), 13, 300, o);
}

TEST(Quiescence, RunMatchesTickOnSyntheticIdle)
{
    StressOutcome o;
    stress(syntheticIdle(), 14, 300, o);
    EXPECT_GT(o.skipped, 0u);
}

TEST(Quiescence, SkippedCyclesCountedOnArt)
{
    Simulator sim(experiments::iqBase(), spec2000("art"));
    const SimResult r = sim.run(300'000);
    EXPECT_GT(r.activity.skippedCycles, 0u);
    EXPECT_LE(r.activity.skippedCycles, r.cycles);
    EXPECT_EQ(r.activity.cycles, r.cycles);
}

TEST(Quiescence, SkippedCyclesSurviveCheckpoint)
{
    Simulator straight(experiments::iqBase(), spec2000("mcf"));
    const SimResult want = straight.run(200'000);

    Simulator saver(experiments::iqBase(), spec2000("mcf"));
    saver.runTo(100'000);
    Simulator resumed(experiments::iqBase(), spec2000("mcf"));
    resumed.restoreCheckpoint(saver.saveCheckpoint());
    resumed.runTo(200'000);
    EXPECT_EQ(resumed.result().activity.skippedCycles,
              want.activity.skippedCycles);
    EXPECT_EQ(experiments::hashSimResult(resumed.result()),
              experiments::hashSimResult(want));
}

TEST(Quiescence, CmpCountsSkippedCyclesPerCore)
{
    CmpSimConfig cmp;
    cmp.base = experiments::iqBase();
    cmp.cores = 2;
    cmp.benchmarks = {"art", "mcf"};
    CmpSimulator sim(cmp);
    const CmpResult r = sim.run(200'000);
    ASSERT_EQ(r.cores.size(), 2u);
    for (const SimResult& c : r.cores) {
        EXPECT_GT(c.activity.skippedCycles, 0u) << c.benchmark;
        EXPECT_LE(c.activity.skippedCycles, c.cycles) << c.benchmark;
    }
}

} // namespace
} // namespace tempest
