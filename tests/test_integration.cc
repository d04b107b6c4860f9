/**
 * @file
 * Integration tests asserting the paper's qualitative results
 * (the orderings of §4) on shortened runs.
 *
 * These use reduced cycle counts to stay fast; the bench binaries
 * regenerate the full tables and figures. Several tests compare
 * the same runs, so every distinct (config, benchmark, cycles)
 * run is listed once in kRuns and computed once, in parallel,
 * through the ExperimentRunner the first time a test asks for a
 * result. Each run keeps the config's own runSeed, as
 * runBenchmark() does.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace tempest
{
namespace
{

using namespace experiments;

constexpr std::uint64_t kCycles = 12'000'000;

SimConfig
configNamed(const std::string& name)
{
    if (name == "iq_base")
        return iqBase();
    if (name == "iq_toggling")
        return iqToggling();
    if (name == "alu_base")
        return aluBase();
    if (name == "alu_finegrain")
        return aluFineGrain();
    if (name == "alu_roundrobin")
        return aluRoundRobin();
    if (name == "regfile_priority")
        return regfileConfig(PortMapping::Priority, false);
    if (name == "regfile_balanced")
        return regfileConfig(PortMapping::Balanced, false);
    if (name == "regfile_priority_turnoff")
        return regfileConfig(PortMapping::Priority, true);
    if (name == "regfile_balanced_turnoff")
        return regfileConfig(PortMapping::Balanced, true);
    fatal("unknown integration config '", name, "'");
}

struct Run
{
    const char* config;
    const char* benchmark;
    std::uint64_t cycles;
};

/** Every run the tests below read, each listed once. */
constexpr Run kRuns[] = {
    {"iq_base", "eon", 6'000'000},
    {"alu_base", "eon", 6'000'000},
    {"regfile_priority", "eon", 6'000'000},
    {"regfile_balanced", "eon", 6'000'000},
    {"iq_base", "eon", kCycles},
    {"iq_toggling", "eon", kCycles},
    {"iq_base", "perlbmk", kCycles},
    {"iq_toggling", "perlbmk", kCycles},
    {"iq_base", "art", kCycles / 3},
    {"iq_toggling", "art", kCycles / 3},
    {"alu_base", "perlbmk", kCycles},
    {"alu_finegrain", "perlbmk", kCycles},
    {"alu_roundrobin", "perlbmk", kCycles},
    {"alu_base", "parser", kCycles / 2},
    {"alu_finegrain", "parser", kCycles / 2},
    {"regfile_priority", "eon", kCycles},
    {"regfile_balanced", "eon", kCycles},
    {"regfile_balanced_turnoff", "eon", kCycles},
    {"regfile_priority_turnoff", "eon", kCycles},
};

using RunKey = std::tuple<std::string, std::string, std::uint64_t>;

/** The result of one kRuns entry; all of them are computed on the
 * first call. */
const SimResult&
run(const std::string& config, const std::string& benchmark,
    std::uint64_t cycles)
{
    static const std::map<RunKey, SimResult> results = [] {
        ExperimentRunner runner;
        for (const Run& r : kRuns) {
            ExperimentJob job;
            job.tag = r.config;
            job.benchmark = r.benchmark;
            job.config = configNamed(r.config);
            job.cycles = r.cycles;
            job.deriveSeed = false;
            runner.add(std::move(job));
        }
        const std::vector<ExperimentOutcome> outcomes = runner.run();
        std::map<RunKey, SimResult> out;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok)
                fatal("integration run failed: ", outcomes[i].error);
            out[{kRuns[i].config, kRuns[i].benchmark,
                 kRuns[i].cycles}] = outcomes[i].result;
        }
        return out;
    }();
    const auto it = results.find({config, benchmark, cycles});
    if (it == results.end()) {
        fatal("integration run ", config, "/", benchmark, "/",
              cycles, " is not listed in kRuns");
    }
    return it->second;
}

TEST(Calibration, ConstrainedFloorplansPinTheirResource)
{
    // §3.2's criterion: under a hot workload, the constrained
    // resource is the hottest backend block of its floorplan.
    {
        const SimResult& r = run("iq_base", "eon", 6'000'000);
        EXPECT_GT(r.block("IntQ1").max, r.block("IntExec0").max);
        EXPECT_GT(r.block("IntQ1").max, r.block("IntReg0").max);
    }
    {
        const SimResult& r = run("alu_base", "eon", 6'000'000);
        EXPECT_GT(r.block("IntExec0").max, r.block("IntQ1").max);
        EXPECT_GT(r.block("IntExec0").max, r.block("IntReg0").max);
    }
    {
        const SimResult& r =
            run("regfile_priority", "eon", 6'000'000);
        EXPECT_GT(r.block("IntReg0").max, r.block("IntQ1").max);
        EXPECT_GT(r.block("IntReg0").max,
                  r.block("IntExec0").max);
    }
}

TEST(IssueQueueExperiment, TailRunsHotterThanHeadInBase)
{
    // Table 4's base rows: the tail half leads the head half.
    const SimResult& r = run("iq_base", "eon", kCycles);
    EXPECT_GT(r.block("IntQ1").avg, r.block("IntQ0").avg + 0.3);
}

TEST(IssueQueueExperiment, TogglingEqualizesHalves)
{
    // Table 4's activity-toggling rows: halves equalize.
    const SimResult& base = run("iq_base", "eon", kCycles);
    const SimResult& tog = run("iq_toggling", "eon", kCycles);
    const double base_gap =
        base.block("IntQ1").avg - base.block("IntQ0").avg;
    const double tog_gap =
        tog.block("IntQ1").avg - tog.block("IntQ0").avg;
    EXPECT_LT(std::abs(tog_gap), std::abs(base_gap));
    EXPECT_GT(tog.dtm.iqToggles, 0u);
}

TEST(IssueQueueExperiment, TogglingNeverHurtsAndHelpsConstrained)
{
    for (const char* b : {"eon", "perlbmk"}) {
        const SimResult& base = run("iq_base", b, kCycles);
        const SimResult& tog = run("iq_toggling", b, kCycles);
        EXPECT_GE(tog.ipc, base.ipc * 0.995) << b;
        EXPECT_LE(tog.stallCycles,
                  base.stallCycles + kCycles / 100)
            << b;
    }
    // Unconstrained benchmarks are untouched.
    const SimResult& base = run("iq_base", "art", kCycles / 3);
    const SimResult& tog = run("iq_toggling", "art", kCycles / 3);
    EXPECT_DOUBLE_EQ(base.ipc, tog.ipc);
}

TEST(AluExperiment, FineGrainTurnoffBeatsBase)
{
    // §4.2: large speedups on ALU-constrained benchmarks.
    const SimResult& base = run("alu_base", "perlbmk", kCycles);
    const SimResult& fg = run("alu_finegrain", "perlbmk", kCycles);
    EXPECT_GT(fg.ipc, base.ipc * 1.10);
    EXPECT_LT(fg.stallCycles, base.stallCycles);
    EXPECT_GT(fg.dtm.aluTurnoffEvents, 0u);
}

TEST(AluExperiment, RoundRobinIsCloseToFineGrain)
{
    // Figure 7: fine-grain turnoff approaches ideal round-robin.
    const SimResult& fg = run("alu_finegrain", "perlbmk", kCycles);
    const SimResult& rr = run("alu_roundrobin", "perlbmk", kCycles);
    EXPECT_NEAR(fg.ipc, rr.ipc, 0.15 * rr.ipc);
}

TEST(AluExperiment, UnconstrainedBenchmarkUnaffected)
{
    // Table 5's parser row: no overheating, no turnoffs, same IPC.
    const SimResult& base = run("alu_base", "parser", kCycles / 2);
    const SimResult& fg =
        run("alu_finegrain", "parser", kCycles / 2);
    EXPECT_DOUBLE_EQ(base.ipc, fg.ipc);
    EXPECT_EQ(fg.dtm.aluTurnoffEvents, 0u);
}

TEST(AluExperiment, BaseAluTemperatureGradient)
{
    // Table 5: ALU0 runs several K hotter than ALU5 under static
    // priority even without overheating (parser).
    const SimResult& r = run("alu_base", "parser", kCycles / 2);
    EXPECT_GT(r.block("IntExec0").avg,
              r.block("IntExec5").avg + 2.0);
}

TEST(RegfileExperiment, PaperOrderingHolds)
{
    // §4.3 / Figure 8 on eon: priority+turnoff >= balanced+turnoff
    // >= balanced-only >= priority-only.
    const SimResult& po = run("regfile_priority", "eon", kCycles);
    const SimResult& bo = run("regfile_balanced", "eon", kCycles);
    const SimResult& bf =
        run("regfile_balanced_turnoff", "eon", kCycles);
    const SimResult& pf =
        run("regfile_priority_turnoff", "eon", kCycles);
    EXPECT_GE(pf.ipc, bf.ipc * 0.99);
    // Stop-go quantization adds a few percent of noise at this
    // run length; the full-length bench shows the strict order.
    EXPECT_GE(bf.ipc, bo.ipc * 0.96);
    EXPECT_GE(bo.ipc, po.ipc * 0.99);
    // And the combination is a strict improvement over the
    // unmanaged priority mapping. The margin is small at this
    // run length: cooling stalls are quantized to 1.68M-cycle
    // events, so whether the last one lands inside the 12M-cycle
    // window moves IPC by ~14%; the full-length bench shows the
    // >5% gap.
    EXPECT_GT(pf.ipc, po.ipc * 1.01);
}

TEST(RegfileExperiment, PriorityMappingConcentratesHeat)
{
    // Table 6: under priority mapping copy 0 leads copy 1; under
    // balanced mapping the copies are close.
    const SimResult& po =
        run("regfile_priority", "eon", kCycles / 2);
    const SimResult& bo =
        run("regfile_balanced", "eon", kCycles / 2);
    const double po_gap =
        po.block("IntReg0").avg - po.block("IntReg1").avg;
    const double bo_gap =
        bo.block("IntReg0").avg - bo.block("IntReg1").avg;
    EXPECT_GT(po_gap, 0.5);
    EXPECT_LT(std::abs(bo_gap), po_gap);
}

TEST(RegfileExperiment, TurnoffEventsCountedUnderPressure)
{
    const SimResult& pf =
        run("regfile_priority_turnoff", "eon", kCycles);
    EXPECT_GT(pf.dtm.regfileTurnoffEvents, 0u);
}

} // namespace
} // namespace tempest
