/**
 * @file
 * core-ilp and core-mem: one thread, in-process, serial. Every job
 * is driven one sampling interval at a time through
 * Simulator::runTo / CmpSimulator::runTo, so each interval is one
 * timed operation and one span.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace tempest;

namespace
{

/** Fixed shape of one core workload round. */
struct CoreSpec
{
    std::vector<std::string> profiles;
    std::uint64_t cycles = 0; ///< per single-core job
    /** The 2-core job: config with benchmarks set, and its length.
     * Its intervals cost about twice a single-core one; at 14-18% of
     * a round's intervals they hold op_p90_ms inside their own
     * population instead of on the boundary between the two. */
    CmpSimConfig cmp;
    std::string cmpTag;
    std::uint64_t cmpCycles = 0;
};

/** The paper's three constrained configurations (Figs. 6-8). */
std::vector<std::pair<std::string, SimConfig>>
paperConfigs()
{
    return {
        {"iq-toggling", experiments::iqToggling()},
        {"alu-finegrain", experiments::aluFineGrain()},
        {"rf-balanced-turnoff",
         experiments::regfileConfig(PortMapping::Balanced, true)},
    };
}

CoreSpec
ilpSpec()
{
    CoreSpec s;
    s.profiles = workloadProfiles("core-ilp");
    s.cycles = 300'000;
    // Baseline floorplan with the limit raised to 362 K: at the
    // default 358 K both tiles of a high-ILP pair spend most of the
    // run in cooling stalls (see README), which would time the
    // stall fast-forward instead of the engine.
    s.cmp.base = experiments::baseConfig(FloorplanVariant::Baseline);
    s.cmp.base.dtm.maxTemperature = 362.0;
    s.cmp.cores = 2;
    s.cmp.benchmarks = {"eon", "gcc"};
    s.cmpTag = "cmp2-eon+gcc";
    s.cmpCycles = 600'000;
    return s;
}

CoreSpec
memSpec()
{
    CoreSpec s;
    s.profiles = workloadProfiles("core-mem");
    s.cycles = 1'200'000;
    s.cmp.base = experiments::baseConfig(FloorplanVariant::Baseline);
    s.cmp.cores = 2;
    s.cmp.benchmarks = {"art", "mcf"};
    s.cmp.stack.dram = true;
    s.cmpTag = "cmp2-stacked-art+mcf";
    s.cmpCycles = 1'200'000;
    return s;
}

struct Job
{
    std::string tag;
    std::string benchmark;
    SimConfig config;
    std::uint64_t cycles = 0;
};

std::uint64_t
scaled(std::uint64_t cycles, std::uint64_t interval, double scale)
{
    const auto c = static_cast<std::uint64_t>(
        static_cast<double>(cycles) * scale);
    return std::max(interval, c - c % interval);
}

} // namespace

void
countSimResult(Tracer& tr, const SimResult& r)
{
    const ActivityRecord& a = r.activity;
    double moves = 0, wakeups = 0, selects = 0, reads = 0;
    for (int q = 0; q < kNumIssueQueues; ++q) {
        moves += static_cast<double>(a.iqEntryMoves[q][0] +
                                     a.iqEntryMoves[q][1]);
        wakeups += static_cast<double>(a.iqTagBroadcasts[q]);
        selects += static_cast<double>(a.iqSelectAccesses[q]);
    }
    for (std::uint64_t v : a.intRegReads)
        reads += static_cast<double>(v);
    reads += static_cast<double>(a.fpRegReads);
    tr.add("uarch.instructions", static_cast<double>(r.instructions));
    tr.add("uarch.cycles", static_cast<double>(r.cycles - r.stallCycles));
    tr.add("uarch.iq_moves", moves);
    tr.add("uarch.wakeups", wakeups);
    tr.add("uarch.selects", selects);
    tr.add("uarch.regfile_reads", reads);
    tr.add("dtm.toggles", static_cast<double>(r.dtm.iqToggles));
    tr.add("dtm.turnoffs",
           static_cast<double>(r.dtm.aluTurnoffEvents +
                               r.dtm.fpAdderTurnoffEvents +
                               r.dtm.regfileTurnoffEvents));
    tr.add("dtm.global_stalls", static_cast<double>(r.dtm.globalStalls));
}

namespace
{

Round
coreRound(const CoreSpec& spec, const RoundCtx& ctx, Tracer& tr)
{
    Round round;
    const Nanos t0 = nowNs();
    const int roundSpan = tr.begin("round", 0);

    // ---- set-up: job list, then the first engine's construction ----
    std::vector<Job> jobs;
    for (const auto& [tag, config] : paperConfigs()) {
        for (const std::string& p : spec.profiles) {
            Job j;
            j.tag = tag;
            j.benchmark = p;
            j.config = config;
            j.config.runSeed = deriveRunSeed(ctx.seed, p, tag);
            j.cycles = scaled(spec.cycles,
                              config.sampleIntervalCycles, ctx.scale);
            jobs.push_back(std::move(j));
        }
    }
    // Seeded execution order: the job set is fixed, its order is
    // an input like any other.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(ctx.seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    // Engines are built just before their jobs, as a real run builds
    // them, so only the first construction is set-up; the rest are
    // part of the job list.
    auto construct = [&](std::size_t i) {
        const Nanos c0 = nowNs();
        Scope s(tr, "sim.construct", i + 1);
        auto sim = std::make_unique<Simulator>(jobs[i].config,
                                               spec2000(jobs[i].benchmark));
        tr.sample("sim.construct_ms", secondsBetween(c0, nowNs()) * 1e3);
        return sim;
    };
    std::unique_ptr<Simulator> first = construct(order.front());

    // ---- timed: the job list ----
    const Nanos t1 = nowNs();
    const double cpu0 = cpuSeconds();
    round.setupS = secondsBetween(t0, t1);

    std::vector<std::uint64_t> hashes(jobs.size() + 1);
    for (std::size_t i : order) {
        const std::unique_ptr<Simulator> owned =
            first ? std::move(first) : construct(i);
        Simulator& sim = *owned;
        const Job& job = jobs[i];
        const std::uint64_t interval = job.config.sampleIntervalCycles;
        const std::string perProfile = "sim." + job.benchmark;
        const int jobSpan = tr.begin("sim.job", i + 1);
        while (sim.cycle() < job.cycles) {
            const std::uint64_t before = sim.cycle();
            const Nanos a = nowNs();
            const int s = tr.begin("sim.runTo", i + 1);
            sim.runTo(before + interval);
            tr.end(s);
            const Nanos b = nowNs();
            round.opMs.push_back(secondsBetween(a, b) * 1e3);
            const auto advance = static_cast<double>(sim.cycle() - before);
            if (sim.cycle() - before > interval) {
                tr.add("sim.stall_ns", static_cast<double>(b - a));
                tr.add("sim.stall_cycles_iv", advance);
            } else {
                tr.add("sim.ticked_ns", static_cast<double>(b - a));
                tr.add("sim.ticked_cycles", advance);
                tr.add(perProfile + ".ticked_ns",
                       static_cast<double>(b - a));
                tr.add(perProfile + ".ticked_cycles", advance);
            }
        }
        tr.end(jobSpan);
        const SimResult r = sim.result();
        hashes[i] = experiments::hashSimResult(r);
        round.instructions += static_cast<double>(r.instructions);
        ++round.attempted;
        tr.add("sim.cycles", static_cast<double>(r.cycles));
        tr.add("sim.stall_cycles", static_cast<double>(r.stallCycles));
        tr.add("sim.overshoot_cycles",
               static_cast<double>(r.cycles - job.cycles));
        countSimResult(tr, r);
        char note[192];
        std::snprintf(note, sizeof note,
                      "job %-20s %-8s ipc %.3f stall_share %.3f "
                      "overshoot %llu cycles",
                      job.tag.c_str(), job.benchmark.c_str(), r.ipc,
                      static_cast<double>(r.stallCycles) /
                          static_cast<double>(r.cycles),
                      static_cast<unsigned long long>(r.cycles -
                                                      job.cycles));
        round.notes.push_back(note);
    }

    {
        CmpSimConfig cmpConfig = spec.cmp;
        cmpConfig.base.runSeed =
            deriveRunSeed(ctx.seed, spec.cmpTag, "cmp");
        const std::uint64_t cmpCycles =
            scaled(spec.cmpCycles, cmpConfig.base.sampleIntervalCycles,
                   ctx.scale);
        const std::uint64_t id = jobs.size() + 1;
        std::unique_ptr<CmpSimulator> cmp;
        {
            Scope s(tr, "cmp.construct", id);
            cmp = std::make_unique<CmpSimulator>(cmpConfig);
        }
        const std::uint64_t interval = cmpConfig.base.sampleIntervalCycles;
        const int jobSpan = tr.begin("cmp.job", id);
        double runNs = 0;
        while (cmp->cycle() < cmpCycles) {
            const std::uint64_t before = cmp->cycle();
            const Nanos a = nowNs();
            const int s = tr.begin("cmp.runTo", id);
            cmp->runTo(before + interval);
            tr.end(s);
            const Nanos b = nowNs();
            round.opMs.push_back(secondsBetween(a, b) * 1e3);
            runNs += static_cast<double>(b - a);
        }
        tr.end(jobSpan);
        const CmpResult r = cmp->result();
        hashes[jobs.size()] = hashCmpResult(r);
        ++round.attempted;
        double stall = 0, cycles = 0;
        std::string shares;
        for (const SimResult& c : r.cores) {
            round.instructions += static_cast<double>(c.instructions);
            stall += static_cast<double>(c.stallCycles);
            cycles += static_cast<double>(c.cycles);
            char buf[32];
            std::snprintf(buf, sizeof buf, " %.3f",
                          static_cast<double>(c.stallCycles) /
                              static_cast<double>(c.cycles));
            shares += buf;
        }
        tr.add("cmp.run_ns", runNs);
        tr.add("cmp.ticked_core_cycles", cycles - stall);
        tr.add("cmp.core_cycles", cycles);
        tr.add("cmp.stall_cycles", stall);
        tr.add("cmp.migrations", static_cast<double>(r.migration.migrations));
        tr.add("cmp.migrated_bytes",
               static_cast<double>(r.migration.bytesMoved));
        char note[192];
        std::snprintf(note, sizeof note,
                      "job %-20s per-core stall_share%s overshoot "
                      "%llu cycles",
                      spec.cmpTag.c_str(), shares.c_str(),
                      static_cast<unsigned long long>(r.cycles -
                                                      cmpCycles));
        round.notes.push_back(note);
    }

    round.cpuS = cpuSeconds() - cpu0;
    round.wallS = secondsBetween(t1, nowNs());
    tr.end(roundSpan);
    for (std::uint64_t h : hashes)
        round.digest = foldDigest(round.digest, h);
    return round;
}

} // namespace

Round
coreIlpRound(const RoundCtx& ctx, Tracer& tracer)
{
    return coreRound(ilpSpec(), ctx, tracer);
}

Round
coreMemRound(const RoundCtx& ctx, Tracer& tracer)
{
    return coreRound(memSpec(), ctx, tracer);
}

} // namespace perfbench
