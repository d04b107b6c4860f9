/**
 * @file
 * sweep-fork: FabricCoordinator::runWarmForkSweep in fork mode over
 * 2 worker processes. Phase 1 writes one warm snapshot per profile
 * to the spill directory; phase 2 ships the paths and restores a
 * fork per (config, profile) shard, merged by job index.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/config.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace perfbench
{

using namespace tempest;

namespace
{

constexpr int kWorkers = 2;
constexpr std::uint64_t kWarmupCycles = 200'000;
constexpr std::uint64_t kMeasureCycles = 200'000;

Config
dotted(std::initializer_list<std::pair<const char*, const char*>> kv)
{
    Config c;
    c.set("floorplan.variant", "regfile");
    c.set("sim.sample_interval", "100000");
    c.set("thermal.time_scale", "0.04");
    for (const auto& [k, v] : kv)
        c.set(k, v);
    return c;
}

/** Figure 8's four register-file configurations (one floorplan, so
 * every config can fork from the same neutral warm-up), over mixed
 * high-ILP and memory-bound profiles. */
fabric::SweepSpec
sweepSpec(double scale)
{
    fabric::SweepSpec spec;
    spec.configs = {
        {"rf-priority", dotted({{"dtm.mapping", "priority"}})},
        {"rf-priority-turnoff",
         dotted({{"dtm.mapping", "priority"},
                 {"dtm.regfile_turnoff", "true"}})},
        {"rf-balanced", dotted({{"dtm.mapping", "balanced"}})},
        {"rf-balanced-turnoff",
         dotted({{"dtm.mapping", "balanced"},
                 {"dtm.regfile_turnoff", "true"}})},
    };
    spec.benchmarks = workloadProfiles("sweep-fork");
    spec.measureCycles = std::max<std::uint64_t>(
        100'000, static_cast<std::uint64_t>(
                     static_cast<double>(kMeasureCycles) * scale));
    return spec;
}

fabric::WarmSpec
warmSpec(double scale)
{
    fabric::WarmSpec warm;
    warm.warmConfig = dotted({});
    warm.warmupCycles = std::max<std::uint64_t>(
        100'000, static_cast<std::uint64_t>(
                     static_cast<double>(kWarmupCycles) * scale));
    return warm;
}

/** Round 0's fabric outcomes, kept for the per-run reference
 * check. */
struct Sample
{
    bool valid = false;
    std::uint64_t baseSeed = 0;
    std::vector<ExperimentOutcome> outcomes;
};
Sample g_round0;

} // namespace

Round
sweepForkRound(const RoundCtx& ctx, Tracer& tr)
{
    Round round;
    const Nanos t0 = nowNs();
    const int roundSpan = tr.begin("round", 0);

    // ---- set-up: job matrix, spill directory, coordinator ----
    const fabric::SweepSpec spec = sweepSpec(ctx.scale);
    const fabric::WarmSpec warm = warmSpec(ctx.scale);
    const std::string spill = "spill-" + std::to_string(ctx.index) +
                              (ctx.scale < 1 ? "-fill" : "");
    std::filesystem::create_directories(spill);

    std::vector<Nanos> spawnTimes;
    std::size_t requeues = 0;
    fabric::FabricOptions opts;
    opts.workers = kWorkers;
    opts.baseSeed = ctx.seed;
    opts.spillDir = spill;
    opts.onEvent = [&](const std::string& line) {
        const Nanos at = nowNs();
        if (line.rfind("spawned worker", 0) == 0) {
            spawnTimes.push_back(at);
            tr.record("fabric.spawn", at, at, 0);
        } else if (line.find("re-queued") != std::string::npos) {
            ++requeues;
            tr.record("fabric.requeue", at, at, 0);
        }
    };
    fabric::FabricCoordinator coordinator(opts);

    // ---- timed: the sweep (worker spawns end the set-up) ----
    const double cpu0 = cpuSeconds();
    const Nanos call = nowNs();
    std::vector<ExperimentOutcome> outcomes;
    {
        Scope s(tr, "fabric.runWarmForkSweep", 0);
        outcomes = coordinator.runWarmForkSweep(spec, warm);
    }
    const Nanos done = nowNs();
    round.cpuS = cpuSeconds() - cpu0;
    // Phase 1 spawns its pool first; the pool being up is the
    // first timed operation's start.
    const Nanos poolUp =
        spawnTimes.size() >= kWorkers ? spawnTimes[kWorkers - 1] : call;
    round.setupS = secondsBetween(t0, poolUp);
    round.wallS = secondsBetween(poolUp, done);

    double jobSeconds = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const ExperimentOutcome& o = outcomes[i];
        ++round.attempted;
        if (!o.ok) {
            ++round.failed;
            round.notes.push_back("FAILED " + o.tag + "/" + o.benchmark +
                                  ": " + o.error);
            continue;
        }
        round.opMs.push_back(o.wallSeconds * 1e3);
        round.classMs[o.benchmark].push_back(o.wallSeconds * 1e3);
        jobSeconds += o.wallSeconds;
        round.instructions += static_cast<double>(o.result.instructions);
        round.digest = foldDigest(round.digest,
                                  experiments::hashSimResult(o.result));
        tr.sample("fabric.job_ms", o.wallSeconds * 1e3);
        countSimResult(tr, o.result);
    }
    // Phase 2 (the forks) starts with its own pool's spawns.
    const Nanos forkStart = spawnTimes.size() >= 2 * kWorkers
                                ? spawnTimes[2 * kWorkers - 2]
                                : poolUp;
    const double forkWall = secondsBetween(forkStart, done);
    tr.add("fabric.sweep_s", forkWall);
    tr.add("fabric.job_s", jobSeconds);
    tr.add("fabric.workers_x_sweep_s", kWorkers * forkWall);
    tr.sample("fabric.overhead_s", forkWall - jobSeconds / kWorkers);
    tr.add("fabric.spawns", static_cast<double>(spawnTimes.size()));
    tr.add("fabric.requeues", static_cast<double>(requeues));
    if (requeues > 0) {
        round.notes.push_back("fabric re-queued " +
                              std::to_string(requeues) + " job(s)");
    }
    round.notes.push_back(
        "sweep " + std::to_string(spec.configs.size()) + " configs x " +
        std::to_string(spec.benchmarks.size()) + " profiles, warm-up " +
        std::to_string(warm.warmupCycles) + " + measure " +
        std::to_string(spec.measureCycles) + " cycles, " +
        std::to_string(kWorkers) + " workers, " +
        std::to_string(spawnTimes.size()) + " spawns");

    std::filesystem::remove_all(spill);
    tr.end(roundSpan);
    if (ctx.index == 0 && ctx.scale >= 1) {
        g_round0.valid = true;
        g_round0.baseSeed = ctx.seed;
        g_round0.outcomes = outcomes;
    }
    return round;
}

std::size_t
sweepForkReferenceCheck(std::uint64_t seed)
{
    if (!g_round0.valid)
        return 1;
    // One sampled shard, recomputed in-process through the same
    // warm-snapshot and fork functions, without files or processes.
    const fabric::SweepSpec spec = sweepSpec(1.0);
    const fabric::WarmSpec warm = warmSpec(1.0);
    const std::size_t i =
        mixSeed(seed, 77) % g_round0.outcomes.size();
    const ExperimentOutcome& o = g_round0.outcomes[i];
    if (!o.ok)
        return 1;
    const std::size_t c = i / spec.benchmarks.size();
    const std::size_t b = i % spec.benchmarks.size();
    const std::string& benchmark = spec.benchmarks[b];
    const std::uint64_t warmSeed =
        deriveRunSeed(g_round0.baseSeed, benchmark, warm.warmTag);
    SimConfig warmConfig = simConfigFromConfig(warm.warmConfig);
    warmConfig.runSeed = warmSeed;
    SimConfig config = simConfigFromConfig(spec.configs[c].second);
    config.runSeed = warmSeed;
    const std::string snapshot = experiments::warmSnapshot(
        warmConfig, benchmark, warmSeed, warm.warmupCycles);
    const SimResult ref = experiments::runFromSnapshot(
        config, benchmark, warmSeed, snapshot, spec.measureCycles,
        warm.resetMeasurement);
    const bool same = experiments::hashSimResult(ref) ==
                      experiments::hashSimResult(o.result);
    std::printf("reference: fabric job %s/%s %s its in-process "
                "warmSnapshot+runFromSnapshot result\n",
                o.tag.c_str(), o.benchmark.c_str(),
                same ? "matches" : "DOES NOT MATCH");
    return same ? 0 : 1;
}

} // namespace perfbench
