/**
 * @file
 * tempest_run: configuration-file-driven simulation driver.
 *
 * Usage:
 *   tempest_run <config.ini> [key=value ...]
 *   tempest_run <config.ini> --cores N [key=value ...]
 *   tempest_run --paper-scale [measure_cycles] [--threads N]
 *
 * --paper-scale runs the paper-scale DTM sweep (four IQ-floorplan
 * technique variants x three benchmarks) through the warm-fork
 * path: each benchmark is warmed once under the base config for
 * measure_cycles/10 cycles and every variant forks its measurement
 * region (default 100M cycles) from that snapshot. Prints one row
 * per job (IPC, hottest block, DTM event counts, result hash) —
 * the numbers behind the paper-scale section of EXPERIMENTS.md.
 *
 * Any "key = value" override on the command line wins over the
 * file. See configs/ for annotated examples. Recognized keys:
 *
 *   [run]      benchmark, cycles, seed, trace_csv, trace_stride
 *   [floorplan] variant = baseline|iq|alu|regfile
 *   [dtm]      toggling, alu_turnoff, regfile_turnoff,
 *              round_robin, fetch_throttling,
 *              mapping = priority|balanced|completely-balanced,
 *              max_temperature, toggle_delta, cooling_time
 *   [thermal]  time_scale, ambient, convection,
 *              solver = expm|euler, max_cached_propagators,
 *              r_stack_bond, stacked_die_thickness
 *   [sim]      sample_interval, warm_start
 *   [cmp]      cores, l2, benchmarks,
 *              migration.{enabled,margin,min_gap,
 *              cooldown_intervals,stall_cycles,bytes_per_cycle}
 *   [stack]    dram, dram_energy_per_access, dram_static_w
 *
 * `--cores N` is sugar for the `cmp.cores = N` override. When the
 * effective config asks for more than one core tile (or a stacked
 * DRAM die), the run goes through the CMP engine: N cores in
 * lockstep on one shared thermal network, per-core DTM plus the
 * cross-core migration policy, one result block per core. The
 * single-core engine is the 1-core case of the same loop, so
 * --cores 1 and no flag print the same result_hash.
 *
 * Checkpointing (resumable runs, see DESIGN.md §11):
 *
 *   --checkpoint-every N   snapshot every N cycles
 *   --checkpoint-dir D     directory for <benchmark>.ckpt
 *                          (default ".")
 *   --resume               restore from the checkpoint file if it
 *                          exists, then continue to [run] cycles
 *
 * Checkpoint files are written atomically (tmp + rename), so a
 * kill at any instant leaves either the previous snapshot or the
 * new one, never a torn file. A resumed run is bit-identical to
 * an uninterrupted one; the printed result_hash proves it.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"
#include "sim/simulator.hh"

using namespace tempest;

namespace
{

/**
 * The paper-scale sweep: every IQ-floorplan DTM variant forks its
 * measurement region from one warm snapshot per benchmark. The
 * variants differ only in technique flags restoreCheckpoint
 * re-asserts, which is exactly the set warm-fork supports.
 */
int
runPaperScale(std::uint64_t measure_cycles, int threads)
{
    using namespace experiments;

    auto make = [](bool toggling, bool throttle) {
        SimConfig config = iqBase();
        config.dtm.iqToggling = toggling;
        config.dtm.fetchThrottling = throttle;
        return config;
    };
    const std::vector<std::pair<std::string, SimConfig>> configs = {
        {"iq_base", make(false, false)},
        {"iq_toggling", make(true, false)},
        {"iq_throttle", make(false, true)},
        {"iq_toggle_throttle", make(true, true)},
    };
    const std::vector<std::string> benchmarks = {"art", "facerec",
                                                 "mesa"};

    WarmForkOptions warm;
    warm.warmConfig = iqBase();
    warm.warmupCycles = measure_cycles / 10;

    ExperimentRunner::Options options;
    options.threads = threads;

    std::printf("paper-scale sweep: %zu configs x %zu benchmarks, "
                "%llu warm-up + %llu measure cycles per job, "
                "%d thread%s\n",
                configs.size(), benchmarks.size(),
                static_cast<unsigned long long>(warm.warmupCycles),
                static_cast<unsigned long long>(measure_cycles),
                threads, threads == 1 ? "" : "s");

    const auto start = std::chrono::steady_clock::now();
    const auto outcomes = runWarmForkSweep(
        configs, benchmarks, measure_cycles, warm, options);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    std::printf("%-20s %-8s %6s %7s %-8s %7s %8s %8s %7s  %s\n",
                "config", "bench", "ipc", "stall%", "hot", "max_K",
                "toggles", "throttl", "wall_s", "result_hash");
    std::uint64_t total_cycles = 0;
    for (const ExperimentOutcome& o : outcomes) {
        if (!o.ok)
            fatal("paper-scale job ", o.tag, "/", o.benchmark,
                  " failed: ", o.error);
        const SimResult& r = o.result;
        const BlockTempStats& hot = *std::max_element(
            r.blocks.begin(), r.blocks.end(),
            [](const BlockTempStats& a, const BlockTempStats& b) {
                return a.max < b.max;
            });
        std::printf("%-20s %-8s %6.3f %6.1f%% %-8s %7.2f %8llu "
                    "%8llu %7.1f  0x%016llx\n",
                    o.tag.c_str(), o.benchmark.c_str(), r.ipc,
                    100.0 * r.stallCycles / r.cycles,
                    hot.name.c_str(), hot.max,
                    static_cast<unsigned long long>(
                        r.dtm.iqToggles),
                    static_cast<unsigned long long>(
                        r.dtm.fetchThrottleEvents),
                    o.wallSeconds,
                    static_cast<unsigned long long>(
                        hashSimResult(r)));
        total_cycles += r.cycles;
    }
    std::printf("%zu jobs, %llu simulated cycles in %.1f s wall "
                "(%.2f Mcycles/s aggregate)\n",
                outcomes.size(),
                static_cast<unsigned long long>(total_cycles),
                wall, total_cycles / wall / 1e6);
    return 0;
}

/**
 * Run `sim` (Simulator or CmpSimulator) to `cycles`: first restore
 * `ckpt_path` when resuming and the file exists, then snapshot to
 * it every `checkpoint_every` cycles (0: never).
 */
template <typename Sim>
void
runResumable(Sim& sim, std::uint64_t cycles,
             std::uint64_t checkpoint_every,
             const std::string& ckpt_path, bool resume)
{
    if (resume) {
        std::ifstream probe(ckpt_path, std::ios::binary);
        if (probe) {
            probe.close();
            sim.restoreCheckpoint(readCheckpointFile(ckpt_path));
            std::printf("resumed       %s @ cycle %llu\n",
                        ckpt_path.c_str(),
                        static_cast<unsigned long long>(
                            sim.cycle()));
        } else {
            inform("--resume: no checkpoint at '", ckpt_path,
                   "', starting from cycle 0");
        }
    }

    if (checkpoint_every > 0) {
        while (sim.cycle() < cycles) {
            const std::uint64_t stop =
                std::min(cycles, sim.cycle() + checkpoint_every);
            sim.runTo(stop);
            writeCheckpointFile(ckpt_path, sim.saveCheckpoint());
        }
    } else {
        sim.runTo(cycles);
    }
}

/**
 * The CMP run path: one lockstep simulation over the shared die
 * (CmpSimulator checkpoints capture every engine, the thermal
 * network, sensors, placement, and any in-flight stall).
 */
int
runCmp(const Config& cfg, std::uint64_t cycles,
       std::uint64_t checkpoint_every,
       const std::string& checkpoint_dir, bool resume)
{
    const CmpSimConfig config = cmpConfigFromConfig(cfg);
    CmpSimulator sim(config);
    runResumable(sim, cycles, checkpoint_every,
                 checkpoint_dir + "/cmp.ckpt", resume);
    const CmpResult r = sim.result();

    std::printf("cores        %d\n", config.cores);
    std::printf("cycles       %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("%-5s %-8s %4s %6s %7s %-10s %7s %7s\n", "core",
                "bench", "tile", "ipc", "stall%", "hot", "max_K",
                "stalls");
    for (std::size_t j = 0; j < r.cores.size(); ++j) {
        const SimResult& c = r.cores[j];
        const BlockTempStats& hot = *std::max_element(
            c.blocks.begin(), c.blocks.end(),
            [](const BlockTempStats& a, const BlockTempStats& b) {
                return a.max < b.max;
            });
        std::printf("%-5zu %-8s %4d %6.3f %6.1f%% %-10s %7.2f "
                    "%7llu\n",
                    j, c.benchmark.c_str(), r.tileOfJob[j], c.ipc,
                    100.0 * c.stallCycles / c.cycles,
                    hot.name.c_str(), hot.max,
                    static_cast<unsigned long long>(
                        c.dtm.globalStalls));
    }
    // Skipped (provably idle) share of all core cycles.
    std::uint64_t core_cycles = 0;
    std::uint64_t skipped = 0;
    for (const SimResult& c : r.cores) {
        core_cycles += c.cycles;
        skipped += c.activity.skippedCycles;
    }
    std::printf("skipped_share %.4f\n",
                core_cycles ? static_cast<double>(skipped) /
                                  static_cast<double>(core_cycles)
                            : 0.0);
    for (const BlockTempStats& b : r.shared) {
        std::printf("shared %-10s avg %7.2f K   max %7.2f K\n",
                    b.name.c_str(), b.avg, b.max);
    }
    std::printf("migrations   %llu (%llu stall cycles, %llu "
                "bytes moved, %llu evaluations)\n",
                static_cast<unsigned long long>(
                    r.migration.migrations),
                static_cast<unsigned long long>(
                    r.migration.migrationStallCycles),
                static_cast<unsigned long long>(
                    r.migration.bytesMoved),
                static_cast<unsigned long long>(
                    r.migration.evaluations));
    std::printf("result_hash  0x%016llx\n",
                static_cast<unsigned long long>(
                    hashCmpResult(r)));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: tempest_run <config.ini> "
                     "[--cores N] [key=value ...]\n"
                     "       tempest_run --paper-scale "
                     "[measure_cycles] [--threads N]\n");
        return 2;
    }

    if (std::strcmp(argv[1], "--paper-scale") == 0) {
        try {
            std::uint64_t measure_cycles = 100'000'000;
            int threads = 1;
            for (int i = 2; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg == "--threads") {
                    if (++i >= argc)
                        fatal("--threads needs a count");
                    threads = std::atoi(argv[i]);
                    if (threads < 1)
                        fatal("--threads must be >= 1");
                } else {
                    char* end = nullptr;
                    errno = 0;
                    measure_cycles =
                        std::strtoull(argv[i], &end, 10);
                    if (end == argv[i] || *end != '\0' ||
                        errno == ERANGE || argv[i][0] == '-' ||
                        measure_cycles == 0) {
                        fatal("--paper-scale: '", argv[i],
                              "' is not a valid cycle count");
                    }
                }
            }
            return runPaperScale(measure_cycles, threads);
        } catch (const tempest::FatalError&) {
            return 1;
        }
    }

    try {
        std::uint64_t checkpoint_every = 0;
        std::string checkpoint_dir = ".";
        bool resume = false;

        Config cfg;
        {
            std::ifstream in(argv[1]);
            if (!in)
                fatal("cannot open config '", argv[1], "'");
            std::stringstream ss;
            ss << in.rdbuf();
            cfg.parseText(ss.str());
        }
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--checkpoint-every") {
                if (++i >= argc)
                    fatal("--checkpoint-every needs a cycle count");
                char* end = nullptr;
                errno = 0;
                checkpoint_every = std::strtoull(argv[i], &end, 10);
                if (end == argv[i] || *end != '\0' ||
                    errno == ERANGE || argv[i][0] == '-') {
                    fatal("--checkpoint-every: '", argv[i],
                          "' is not a valid cycle count");
                }
                if (checkpoint_every == 0)
                    fatal("--checkpoint-every must be > 0");
            } else if (arg == "--checkpoint-dir") {
                if (++i >= argc)
                    fatal("--checkpoint-dir needs a directory");
                checkpoint_dir = argv[i];
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--cores") {
                if (++i >= argc)
                    fatal("--cores needs a count");
                // Sugar for the dotted override; range-checked by
                // cmpConfigFromConfig like any cmp.cores value.
                cfg.parseText(std::string("cmp.cores = ") +
                              argv[i]);
            } else {
                cfg.parseText(arg);
            }
        }

        const std::string bench =
            cfg.getString("run.benchmark", "eon");
        // getInt is signed: a negative run.cycles cast straight to
        // uint64_t would wrap to ~1.8e19 and run "forever".
        const std::int64_t cycles_signed =
            cfg.getInt("run.cycles", 12'000'000);
        if (cycles_signed <= 0) {
            fatal("run.cycles must be > 0 (got ", cycles_signed,
                  ")");
        }
        const auto cycles =
            static_cast<std::uint64_t>(cycles_signed);

        // More than one core tile (or a stacked DRAM die) routes
        // through the CMP report; plain configs keep the single-core
        // report and its outputs byte-for-byte.
        if (cfg.getInt("cmp.cores", 1) > 1 ||
            cfg.getBool("stack.dram", false)) {
            if (!cfg.getString("run.trace_csv", "").empty())
                inform("run.trace_csv is single-core only; "
                       "ignored for CMP runs");
            return runCmp(cfg, cycles, checkpoint_every,
                          checkpoint_dir, resume);
        }

        Simulator sim(simConfigFromConfig(cfg), spec2000(bench));

        ThermalTrace trace(
            sim.floorplan(),
            static_cast<int>(cfg.getInt("run.trace_stride", 1)));
        const std::string trace_path =
            cfg.getString("run.trace_csv", "");
        if (!trace_path.empty())
            sim.setTrace(&trace);

        runResumable(sim, cycles, checkpoint_every,
                     checkpoint_dir + "/" + bench + ".ckpt", resume);
        const SimResult r = sim.result();

        std::printf("benchmark    %s\n", r.benchmark.c_str());
        std::printf("cycles       %llu\n",
                    static_cast<unsigned long long>(r.cycles));
        std::printf("instructions %llu\n",
                    static_cast<unsigned long long>(
                        r.instructions));
        std::printf("ipc          %.3f\n", r.ipc);
        std::printf("stall_cycles %llu (%.1f%%)\n",
                    static_cast<unsigned long long>(
                        r.stallCycles),
                    100.0 * r.stallCycles / r.cycles);
        // Share of cycles OooCore::run() skipped as provably idle
        // (quiescence skipping; bit-identical to ticking them).
        std::printf("skipped_share %.4f\n",
                    r.cycles ? static_cast<double>(
                                   r.activity.skippedCycles) /
                                   static_cast<double>(r.cycles)
                             : 0.0);
        std::printf("stalls       %llu\n",
                    static_cast<unsigned long long>(
                        r.dtm.globalStalls));
        std::printf("toggles      %llu\n",
                    static_cast<unsigned long long>(
                        r.dtm.iqToggles));
        std::printf("turnoffs     %llu alu, %llu fp, %llu "
                    "regfile, %llu fetch-throttle\n",
                    static_cast<unsigned long long>(
                        r.dtm.aluTurnoffEvents),
                    static_cast<unsigned long long>(
                        r.dtm.fpAdderTurnoffEvents),
                    static_cast<unsigned long long>(
                        r.dtm.regfileTurnoffEvents),
                    static_cast<unsigned long long>(
                        r.dtm.fetchThrottleEvents));
        for (const BlockTempStats& b : r.blocks) {
            std::printf("block %-10s avg %7.2f K   max %7.2f K\n",
                        b.name.c_str(), b.avg, b.max);
        }
        // Full-SimResult FNV-1a: bit-identity fingerprint for the
        // kill-and-resume test and for cross-run comparisons.
        std::printf("result_hash  0x%016llx\n",
                    static_cast<unsigned long long>(
                        experiments::hashSimResult(r)));
        if (!trace_path.empty()) {
            trace.writeCsv(trace_path);
            std::printf("trace        %zu samples -> %s\n",
                        trace.size(), trace_path.c_str());
        }
    } catch (const tempest::FatalError&) {
        return 1;
    }
    return 0;
}
