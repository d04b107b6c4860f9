/**
 * @file
 * The closed-loop thermal simulator: N cores over one shared
 * thermal network. A single-core run is the N=1 case (see
 * sim/simulator.hh), so this file holds the only interval loop.
 *
 * The loop mirrors the paper's methodology (§3): execute in
 * 100,000-cycle sampling intervals, convert the interval's activity
 * to per-block power, advance the thermal network, read the
 * sensors, and let each core's DTM act. A GlobalStall freezes the
 * triggering core for exactly the thermal cooling time (served in
 * sample-interval chunks with clock-gated power, plus a final
 * partial chunk for the remainder). Initial temperatures come from
 * a steady-state solve of the first interval's power, clamped to
 * the thermal threshold, so runs begin thermally warmed.
 *
 * Each core — the same core + per-core DTM the paper studies —
 * runs in lockstep on ONE thermal RC network built from a
 * laterally tiled floorplan (Floorplan::cmpTiled): per-core tiles
 * coupled at shared edges, an optional shared-L2 strip along the
 * bottom, one spreader and sink for the whole die, and optionally
 * a stacked DRAM die above the cores whose banks heat the blocks
 * beneath them through the bond layer. With one core and no DRAM
 * layer the die is exactly the paper's single-core floorplan.
 *
 * The engines advance on one thermal clock: every step spans the
 * same cycle range on every core, bounded by the sampling interval
 * and by any in-progress cooling/migration stall so partial chunks
 * land on shared thermal-step boundaries.
 *
 * Jobs are bound to tiles through a placement permutation; the
 * cross-core CmpDtmPolicy may swap a near-threshold tile's job
 * with the coolest tile's. The swap is checkpoint-assisted: both
 * job contexts are serialized through the StateWriter visitor and
 * restored (exercising the real save/load path mid-run), and the
 * serialized byte count prices the transfer stall.
 */

#ifndef TEMPEST_SIM_CMP_CMP_SIMULATOR_HH
#define TEMPEST_SIM_CMP_CMP_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/cmp/cmp_dtm.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

namespace tempest
{

/** Stacked-DRAM (3D) scenario knobs. */
struct CmpStackConfig
{
    /** Stack one DRAM bank over each core tile (layer 1). */
    bool dram = false;

    /**
     * Energy per DRAM access (J). An access here is one L2 miss;
     * the default covers an activate + burst on an old-node DRAM
     * die, deliberately on the hot side so memory-bound workloads
     * (art, mcf) make the stacked die a real heat source.
     */
    Joule dramEnergyPerAccess = 40.0e-9;

    /** Static (refresh + peripheral) power per bank (W). */
    Watt dramStaticW = 1.0;

    /** fatal() on out-of-range values. */
    void validate() const;
};

/** Everything needed to instantiate one CMP simulation. */
struct CmpSimConfig
{
    /** Per-core engine config (pipeline, energy, thermal, DTM,
     * floorplan variant, sampling, seed). The thermal params and
     * DTM threshold also govern the shared die. */
    SimConfig base;

    /** Number of core tiles (1..8). */
    int cores = 1;

    /** Insert the shared-L2 strip (effective when cores >= 2). */
    bool sharedL2 = true;

    /**
     * Benchmark per core, by SPEC2000 profile name. One entry is
     * replicated across all cores; otherwise the length must equal
     * `cores`. Empty defaults to "eon" on every core.
     */
    std::vector<std::string> benchmarks;

    CmpMigrationConfig migration;
    CmpStackConfig stack;

    /** fatal() on inconsistent values. */
    void validate() const;
};

/** End-of-run results for one CMP simulation. */
struct CmpResult
{
    /** Per-job results (indexed by job, not tile). `cycles` counts
     * each core's own clock including stalls. */
    std::vector<SimResult> cores;

    /** Shared blocks (L2 strip, DRAM banks), in floorplan order. */
    std::vector<BlockTempStats> shared;

    /** Cross-core migration counters. */
    CmpDtmStats migration;

    /** Final job placement: tileOfJob[j] is job j's tile. */
    std::vector<int> tileOfJob;

    /** Thermal-clock cycles advanced (== every core's cycles). */
    std::uint64_t cycles = 0;
};

/** FNV-1a over every CmpResult field (golden comparisons). */
std::uint64_t hashCmpResult(const CmpResult& r);

/** Lockstep N-core simulator over one shared thermal network. */
class CmpSimulator
{
  public:
    /** Runs config.benchmarks (SPEC2000 profile names). */
    explicit CmpSimulator(const CmpSimConfig& config);

    /** Runs `profiles` instead of config.benchmarks: one per core,
     * or one replicated across all cores (custom workloads). */
    CmpSimulator(const CmpSimConfig& config,
                 const std::vector<BenchmarkProfile>& profiles);

    /** Run `max_cycles` thermal-clock cycles and build results. */
    CmpResult run(std::uint64_t max_cycles);

    /**
     * Advance lockstep steps until the thermal clock reaches
     * `end_cycle` (absolute, so checkpointed runs continue toward
     * the same endpoint). Stalls are atomic: a cooling or
     * migration stall in progress drains to completion before
     * this returns, so piecewise runTo calls (checkpoint loops)
     * reproduce a monolithic run bit-exactly.
     */
    void runTo(std::uint64_t end_cycle);

    /**
     * Advance exactly one lockstep step (one sampling interval, or
     * the shorter chunk an in-progress stall dictates). Lets tests
     * and tools observe — and checkpoint — mid-stall states that
     * runTo()'s atomic drain would step over.
     */
    void stepOnce();

    /** Build end-of-run results from the measured-region
     * statistics (everything since the last resetMeasurement(),
     * or since construction). */
    CmpResult result() const;

    /**
     * Zero the measured-region statistics (activity totals, block
     * temperature stats, DTM and migration counters) and make
     * result() report cycles/instructions/IPC relative to this
     * point. Used by warm-state forking to exclude the shared
     * warm-up prefix.
     */
    void resetMeasurement();

    /** Current thermal-clock cycle. */
    std::uint64_t cycle() const { return clockCycle_; }

    /** Serialize the complete CMP state (every engine, the shared
     * thermal network, sensors, placement, migration policy) as a
     * versioned checkpoint; restores bit-identically. */
    std::string saveCheckpoint() const;

    /**
     * Restore a checkpoint produced by saveCheckpoint(). The
     * simulator must match in core count, benchmarks, seeds, and
     * floorplan geometry; mismatches are fatal(). Config-derived
     * controls (round-robin select, register-port mapping, fetch
     * throttle when disabled) are re-asserted from *this*
     * simulator's config afterwards, which is what lets a
     * warm-state fork restore a neutral warm-up snapshot under its
     * own DTM configuration.
     */
    void restoreCheckpoint(const std::string& bytes);

    /** Access for tests and tools. */
    const Floorplan& floorplan() const { return plan_; }
    const CmpSimConfig& config() const { return config_; }
    RcModel& thermalModel() { return *rc_; }
    const CmpDtmStats& migrationStats() const;
    const std::vector<int>& tileOfJob() const { return tileOfJob_; }

    /** Attach a trace recorder over the whole die (not owned);
     * nullptr detaches. */
    void setTrace(ThermalTrace* trace) { trace_ = trace; }

  private:
    /** One job context: core, workload, per-core DTM, stats. */
    struct Engine
    {
        std::string benchmark;
        std::uint64_t seed = 0;
        // Pooled backing store for the core's hot-state arrays;
        // must outlive (so: be declared before) the core.
        Arena arena;
        std::unique_ptr<OooCore> core;
        std::unique_ptr<ResourceBalancingDtm> dtm;

        /** Stall cycles still to serve (cooling or migration). */
        std::uint64_t stallRemaining = 0;
        /** Cumulative L2 misses at the last DRAM power update. */
        std::uint64_t prevL2Misses = 0;

        /** Committed count at the measured-region origin. */
        std::uint64_t measureStartCommitted = 0;

        ActivityRecord total;
        struct ThermalAccum
        {
            RunningStat avg;   ///< non-stalled samples
            Kelvin maxT = 0.0; ///< includes stalled intervals
        };
        /** Per core-plan block, travels with the job. */
        std::vector<ThermalAccum> accum;
    };

    /** Advance one lockstep step of `cycles` cycles. */
    void step(std::uint64_t cycles);

    /** Serialize job j's movable context (core, workload, queues,
     * functional units, regfile, caches, per-core DTM). */
    void saveEngineContext(StateWriter& w, const Engine& e) const;
    void loadEngineContext(StateReader& r, Engine& e);

    /** Swap the jobs on two tiles, checkpoint-assisted. */
    void migrate(int hot_tile, int cool_tile);

    /** True while any engine still owes stall cycles. */
    bool anyStallPending() const;

    CmpSimConfig config_;
    Floorplan corePlan_; ///< one tile (ev6Like)
    Floorplan plan_;     ///< full CMP floorplan (cmpTiled)
    int coreBlocks_ = 0; ///< blocks per tile
    int l2Index_ = -1;   ///< shared-L2 block index, -1 if absent
    int dramBase_ = -1;  ///< first DRAM bank index, -1 if absent
    SquareMeter l2Area_ = 0.0;

    std::vector<std::unique_ptr<Engine>> engines_; ///< by job
    std::unique_ptr<PowerModel> power_; ///< shared (same config)
    std::unique_ptr<RcModel> rc_;
    std::unique_ptr<SensorBank> sensors_;
    std::unique_ptr<CmpDtmPolicy> cmpDtm_;

    std::vector<int> tileOfJob_; ///< placement permutation
    std::vector<int> jobOfTile_; ///< its inverse

    std::uint64_t clockCycle_ = 0;
    /** Clock cycle at the measured-region origin. */
    std::uint64_t measureStartCycle_ = 0;
    std::uint64_t coolingCycles_ = 0; ///< per GlobalStall trigger
    bool warmed_ = false;
    ThermalTrace* trace_ = nullptr;

    /** Shared blocks (L2, DRAM): averaged over every interval. */
    std::vector<Engine::ThermalAccum> sharedAccum_;

    // Scratch reused across steps.
    std::vector<ActivityRecord> intervalScratch_;
    std::vector<std::uint8_t> stalledScratch_;
    std::vector<Watt> corePowerScratch_;
    std::vector<Watt> powerScratch_;
    std::vector<Kelvin> dieTempScratch_;
    std::vector<std::vector<Kelvin>> tileTempScratch_;
    std::vector<Kelvin> tileHottestScratch_;
    std::vector<std::uint8_t> eligibleScratch_;
};

/** One parameterized CMP run for the sweep drivers. */
struct CmpJob
{
    std::string tag; ///< row label (reports, hashes)
    CmpSimConfig config;
    std::uint64_t cycles = 0;
};

/** Result of one CmpJob. */
struct CmpJobOutcome
{
    std::string tag;
    CmpResult result;
    std::uint64_t hash = 0;     ///< hashCmpResult(result)
    double wallSeconds = 0.0;   ///< not hashed
};

/**
 * Run jobs on `threads` worker threads (experiments::parallelFor).
 * Outcomes come back in job order regardless of scheduling, and
 * each job is a fully independent CmpSimulator, so the results are
 * identical for any thread count (the 1/2/8-thread stability test
 * holds this).
 */
std::vector<CmpJobOutcome> runCmpJobs(const std::vector<CmpJob>& jobs,
                                      int threads);

} // namespace tempest

#endif // TEMPEST_SIM_CMP_CMP_SIMULATOR_HH
