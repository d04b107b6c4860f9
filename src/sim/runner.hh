/**
 * @file
 * Parallel experiment runner.
 *
 * A full reproduction of the paper is a sweep of 22 benchmark
 * profiles times 2-4 configurations, and every simulation in the
 * sweep is independent. The runner executes (SimConfig, benchmark,
 * cycles) jobs on a fixed-size thread pool and guarantees that the
 * result set is bit-identical to running the same jobs serially:
 *
 * - Each job's RNG seed is derived deterministically from
 *   (baseSeed, benchmark, config tag) by deriveRunSeed(), never
 *   from scheduling order, thread identity, or wall-clock time.
 * - Results are stored by submission index, so the returned vector
 *   has a stable order no matter which worker finishes first.
 * - A job that throws (e.g. fatal() on an unknown benchmark) is
 *   captured into its ExperimentOutcome instead of aborting the
 *   sweep; the remaining jobs still run.
 *
 * Progress is reported through an optional callback, invoked under
 * a lock as jobs complete (completion order, not submission
 * order).
 */

#ifndef TEMPEST_SIM_RUNNER_HH
#define TEMPEST_SIM_RUNNER_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace tempest
{

/**
 * Per-run seed derived from the experiment identity. Stable across
 * platforms and library versions (FNV-1a over the strings, mixed
 * with the base seed through a splitmix64 finalizer), so a given
 * (baseSeed, benchmark, config tag) names the same simulation
 * forever, independent of how many sibling jobs a sweep contains
 * or the order they execute in.
 */
std::uint64_t deriveRunSeed(std::uint64_t base_seed,
                            std::string_view benchmark,
                            std::string_view config_tag);

/** One simulation to execute. */
struct ExperimentJob
{
    /** Configuration identity within the sweep (e.g. "toggling");
     * part of the seed derivation. */
    std::string tag;
    /** SPEC2000 profile name (see spec2000Names()). */
    std::string benchmark;
    SimConfig config;
    std::uint64_t cycles = 0;
    /** Overwrite config.runSeed with deriveRunSeed(baseSeed,
     * benchmark, tag); false keeps the caller's runSeed (the
     * legacy serial-path behaviour). */
    bool deriveSeed = true;
};

/** Result (or captured failure) of one job. */
struct ExperimentOutcome
{
    std::string tag;
    std::string benchmark;
    std::uint64_t seed = 0; ///< runSeed the simulation used
    bool ok = false;
    std::string error;      ///< failure description when !ok
    SimResult result;       ///< valid only when ok
    /** Wall-clock seconds this job took (simulation only, not
     * queueing); informational, never part of the result hash. */
    double wallSeconds = 0;
};

/** Fixed-size thread pool over independent simulation jobs. */
class ExperimentRunner
{
  public:
    /** Called as each job completes: (outcome, done, total). */
    using ProgressFn = std::function<void(
        const ExperimentOutcome&, std::size_t, std::size_t)>;

    struct Options
    {
        /** Worker count; <= 0 selects defaultThreads(). */
        int threads = 0;
        /** Experiment-level seed the per-job seeds derive from. */
        std::uint64_t baseSeed = 1;
        /** Optional completion callback (serialized). */
        ProgressFn progress;
    };

    ExperimentRunner() = default;
    explicit ExperimentRunner(Options options)
        : options_(std::move(options))
    {}

    /** Queue a job; @return its submission index. */
    std::size_t add(ExperimentJob job);

    /** Queue a job from its parts; @return submission index. */
    std::size_t add(std::string tag, const SimConfig& config,
                    std::string benchmark, std::uint64_t cycles);

    /** Jobs queued and not yet run. */
    std::size_t pending() const { return jobs_.size(); }

    /**
     * Execute every queued job and clear the queue. Outcomes are
     * indexed by submission order regardless of scheduling.
     */
    std::vector<ExperimentOutcome> run();

    /**
     * Execute one job on the calling thread — the serial reference
     * path the pool's workers also use, so parallel results are
     * bit-identical to serial ones by construction. Exceptions are
     * captured into the outcome.
     */
    static ExperimentOutcome runJob(const ExperimentJob& job,
                                    std::uint64_t base_seed);

    /** TEMPEST_THREADS if set, else hardware concurrency. */
    static int defaultThreads();

  private:
    Options options_;
    std::vector<ExperimentJob> jobs_;
};

namespace experiments
{

/**
 * Run `fn(i)` for every i in [0, total) on min(threads, total)
 * workers (at least one) that pull indices from a shared counter.
 * One worker runs inline on the calling thread. Callers store
 * results by index, so their order never depends on scheduling.
 */
template <typename Fn>
void
parallelFor(std::size_t total, int threads, Fn&& fn)
{
    if (total == 0)
        return;
    threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(threads, 1)), total));
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            fn(i);
        }
    };
    if (threads == 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread& t : pool)
        t.join();
}

/**
 * Run the cross product of tagged configurations and benchmarks
 * through the runner. Outcome order: configs-major, benchmarks
 * minor (the order the nested loops submit in).
 */
std::vector<ExperimentOutcome> runSweep(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t cycles,
    const ExperimentRunner::Options& options = {});

/**
 * Warm-state forking (see DESIGN.md §11).
 *
 * Instead of every (config, benchmark) job re-simulating the same
 * warm-up prefix, each benchmark is warmed up once under a shared
 * neutral configuration, snapshotted, and every DTM configuration
 * forks from that snapshot. All forks of a benchmark share the
 * warm-up's derived seed — deriveRunSeed(baseSeed, benchmark,
 * warmTag) — so the instruction stream continues identically in
 * every fork; per-config decorrelation is intentionally given up,
 * which is exactly the paper's methodology (same workload, DTM
 * policies differ).
 *
 * Discipline: the warm-up configuration must use the same
 * pipeline geometry, floorplan variant, and thermal parameters as
 * every fork (restoreCheckpoint enforces this), and should keep
 * all DTM techniques off so no technique-specific state leaks
 * into the snapshot. Config-derived controls (round-robin,
 * port mapping, fetch throttle) are re-asserted per fork by
 * restoreCheckpoint().
 */
struct WarmForkOptions
{
    /** Shared warm-up configuration (neutral: techniques off). */
    SimConfig warmConfig;
    /** Cycles to warm up before the snapshot. */
    std::uint64_t warmupCycles = 0;
    /** Seed identity of the warm-up (shared by all forks). */
    std::string warmTag = "warmup";
    /** Zero measurement state after restore so results cover only
     * the post-fork region. */
    bool resetMeasurement = true;
    /** Non-empty: spill snapshots to `<dir>/warm_<bench>.ckpt`
     * and re-read per fork instead of keeping them in memory. */
    std::string spillDir;
};

/**
 * Run the (configs x benchmarks) sweep with warm-state forking:
 * one warm-up per benchmark, then every config forks from the
 * snapshot. Outcome order matches runSweep (configs-major).
 * Warm-ups and forks both run on the options thread pool, and the
 * outcome set is bit-identical at any thread count.
 */
std::vector<ExperimentOutcome> runWarmForkSweep(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t measure_cycles, const WarmForkOptions& warm,
    const ExperimentRunner::Options& options = {});

/**
 * Warm one benchmark under `warm_config` for `warmup_cycles` and
 * return the snapshot bytes — the single-benchmark half of
 * runWarmForkSweep's phase 1, exposed so long-lived services
 * (tempest_serve's warm-snapshot pool) can build and keep
 * snapshots across requests. `seed` is the exact runSeed the
 * snapshot bakes in; every fork must use the same one
 * (restoreCheckpoint enforces it).
 */
std::string warmSnapshot(const SimConfig& warm_config,
                         const std::string& benchmark,
                         std::uint64_t seed,
                         std::uint64_t warmup_cycles);

/**
 * Run one simulation job: the one run-one-job path behind
 * ExperimentRunner, runWarmForkSweep's forks, the serve daemon
 * and the fabric workers. Builds a simulator for `benchmark` under
 * `config` with run seed `seed`; an empty `snapshot` is a cold
 * run from cycle 0, otherwise the run forks from the snapshot and
 * runs `measure_cycles` more cycles. A fork's `config` may differ
 * from the snapshot's warm-up config in DTM technique settings
 * (restoreCheckpoint re-asserts config-derived controls) but must
 * share benchmark, seed, and geometry. With `reset_measurement`,
 * a fork's result covers only the post-fork region.
 * Deterministic: the same arguments always return a bit-identical
 * SimResult.
 */
SimResult runFromSnapshot(const SimConfig& config,
                          const std::string& benchmark,
                          std::uint64_t seed,
                          const std::string& snapshot,
                          std::uint64_t measure_cycles,
                          bool reset_measurement = true);

} // namespace experiments

} // namespace tempest

#endif // TEMPEST_SIM_RUNNER_HH
