/**
 * @file
 * Standalone layer probes for the traced run. Each times calls into
 * one layer's public functions on the workload's own profiles:
 * InstructionStream::next, RcModel::step / solveSteadyState,
 * Simulator::saveCheckpoint / restoreCheckpoint,
 * writeCheckpointFile / readCheckpointFile,
 * experiments::warmSnapshot, and the serve codec.
 */

#include <filesystem>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace tempest;

void serveCodecProbe(std::uint64_t seed, Tracer& tr);

namespace
{

constexpr std::uint64_t kProbeWarmup = 200'000;

/** Keeps probe results observable so loops are not elided. */
volatile std::uint64_t g_sink = 0;

bool
isCore(const std::string& workload)
{
    return workload.rfind("core-", 0) == 0;
}

/** The constrained single-core config the workload mostly uses. */
SimConfig
probeConfig(const std::string& workload, std::uint64_t seed)
{
    SimConfig c = isCore(workload)
                      ? experiments::iqToggling()
                      : experiments::regfileConfig(PortMapping::Priority,
                                                   false);
    c.runSeed = seed;
    return c;
}

double
ms(Nanos a, Nanos b)
{
    return static_cast<double>(b - a) * 1e-6;
}

void
generatorProbe(const std::vector<std::string>& profiles,
               std::uint64_t seed, Tracer& tr)
{
    constexpr int kOps = 1'000'000;
    Scope s(tr, "probe.workload_gen", 0);
    for (int rep = 0; rep < 3; ++rep) {
        for (const std::string& p : profiles) {
            InstructionStream stream(spec2000(p), seed);
            std::uint64_t sink = 0;
            const Nanos a = nowNs();
            for (int i = 0; i < kOps; ++i)
                sink += static_cast<std::uint64_t>(stream.next().cls);
            const Nanos b = nowNs();
            g_sink = g_sink + sink;
            tr.sample("workload.gen_ns_per_op",
                      static_cast<double>(b - a) / kOps);
        }
    }
}

/** Step an RC network through `powers` (one vector per interval)
 * and record the mean microseconds per step, after one untimed
 * pass that fills the propagator cache. */
void
stepProbe(const Floorplan& plan, const ThermalParams& params,
          const std::vector<std::vector<Watt>>& powers, Seconds dt,
          const std::string& key, Tracer& tr)
{
    RcModel rc(plan, params);
    rc.setPowers(powers.front());
    rc.solveSteadyState();
    for (int rep = 0; rep < 6; ++rep) {
        const Nanos a = nowNs();
        for (const std::vector<Watt>& p : powers) {
            rc.setPowers(p);
            rc.step(dt);
        }
        const Nanos b = nowNs();
        if (rep > 0) {
            tr.sample(key, static_cast<double>(b - a) * 1e-3 /
                               static_cast<double>(powers.size()));
        }
    }
}

void
thermalProbe(const std::string& workload,
             const std::vector<std::string>& profiles, std::uint64_t seed,
             Tracer& tr)
{
    // Record a short run's per-interval block powers.
    const SimConfig config = probeConfig(workload, seed);
    Simulator sim(config, spec2000(profiles.front()));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    sim.runTo(6 * config.sampleIntervalCycles);
    sim.setTrace(nullptr);
    std::vector<std::vector<Watt>> powers;
    for (std::size_t i = 0; i < trace.size(); ++i)
        powers.push_back(trace.sample(i).power);
    const Seconds dt = static_cast<double>(config.sampleIntervalCycles) /
                       config.pipeline.frequencyHz;

    Scope s(tr, "probe.thermal", 0);
    {
        RcModel rc(sim.floorplan(), config.thermal);
        rc.setPowers(powers.back());
        for (int rep = 0; rep < 5; ++rep) {
            const Nanos a = nowNs();
            rc.solveSteadyState();
            tr.sample("thermal.steady_ms", ms(a, nowNs()));
        }
    }
    stepProbe(sim.floorplan(), config.thermal, powers, dt,
              "thermal.step_us", tr);

    // The 2-core plan (shared L2 strip), each tile fed the recorded
    // single-core powers.
    const Floorplan cmpPlan =
        Floorplan::cmpTiled(config.variant, 2, true, false);
    const std::size_t perTile = powers.front().size();
    std::vector<std::vector<Watt>> cmpPowers;
    for (const std::vector<Watt>& p : powers) {
        std::vector<Watt> q(static_cast<std::size_t>(cmpPlan.numBlocks()),
                            1.0);
        for (std::size_t i = 0; i < q.size() && i < 2 * perTile; ++i)
            q[i] = p[i % perTile];
        cmpPowers.push_back(std::move(q));
    }
    stepProbe(cmpPlan, config.thermal, cmpPowers, dt,
              "thermal.cmp_step_us", tr);
}

void
checkpointProbe(const std::string& workload,
                const std::vector<std::string>& profiles,
                std::uint64_t seed, Tracer& tr)
{
    const SimConfig config = probeConfig(workload, seed);
    const std::string path = "probe.ckpt";
    for (const std::string& p : profiles) {
        Simulator sim(config, spec2000(p));
        sim.runTo(kProbeWarmup);
        for (int rep = 0; rep < 3; ++rep) {
            const int span = tr.begin("probe.checkpoint", 0);
            Nanos a = nowNs();
            const std::string bytes = sim.saveCheckpoint();
            Nanos b = nowNs();
            const double mb = static_cast<double>(bytes.size()) * 1e-6;
            tr.sample("checkpoint.bytes",
                      static_cast<double>(bytes.size()));
            tr.sample("checkpoint.save_mbps", mb / (ms(a, b) * 1e-3));

            a = nowNs();
            writeCheckpointFile(path, bytes);
            b = nowNs();
            tr.sample("checkpoint.file_write_ms", ms(a, b));
            a = nowNs();
            const std::string back = readCheckpointFile(path);
            b = nowNs();
            tr.sample("checkpoint.file_read_ms", ms(a, b));

            Simulator fork(config, spec2000(p));
            a = nowNs();
            fork.restoreCheckpoint(back);
            b = nowNs();
            tr.sample("checkpoint.restore_mbps", mb / (ms(a, b) * 1e-3));
            tr.end(span);
        }
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

void
warmSnapshotProbe(const std::string& workload,
                  const std::vector<std::string>& profiles,
                  std::uint64_t seed, Tracer& tr)
{
    const SimConfig config = probeConfig(workload, seed);
    for (const std::string& p : profiles) {
        Scope s(tr, "probe.warm_snapshot", 0);
        const Nanos a = nowNs();
        const std::string snap =
            experiments::warmSnapshot(config, p, seed, kProbeWarmup);
        tr.sample("runner.warm_snapshot_ms", ms(a, nowNs()));
        g_sink = g_sink + snap.size();
    }
}

} // namespace

void
runLayerProbes(const std::string& workload, std::uint64_t seed,
               Tracer& tracer)
{
    const std::vector<std::string> profiles = workloadProfiles(workload);
    generatorProbe(profiles, seed, tracer);
    thermalProbe(workload, profiles, seed, tracer);
    checkpointProbe(workload, profiles, seed, tracer);
    warmSnapshotProbe(workload, profiles, seed, tracer);
    serveCodecProbe(seed, tracer);
}

} // namespace perfbench
