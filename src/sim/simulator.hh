/**
 * @file
 * Single-core simulation: the configuration and result types every
 * driver shares, and Simulator, the one-core front over the
 * closed-loop engine in sim/cmp/cmp_simulator.hh.
 *
 * A single-core run is the engine's N=1 case — one core tile, no
 * shared L2, no DRAM layer, no migration — so the paper's loop
 * (§3: run a sampling interval, convert activity to power, step
 * the RC network, read the sensors, let the DTM act) exists once.
 */

#ifndef TEMPEST_SIM_SIMULATOR_HH
#define TEMPEST_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dtm/dtm_policy.hh"
#include "power/power_model.hh"
#include "sim/trace.hh"
#include "thermal/rc_model.hh"
#include "thermal/sensor.hh"
#include "uarch/core.hh"
#include "workload/profile.hh"

namespace tempest
{

/** Everything needed to instantiate one simulation. */
struct SimConfig
{
    PipelineConfig pipeline;
    EnergyParams energy;
    ThermalParams thermal;
    DtmConfig dtm;
    FloorplanVariant variant = FloorplanVariant::Baseline;

    /** Sensor sampling interval (paper: 100,000 cycles). */
    std::uint64_t sampleIntervalCycles = 100000;

    /** Sensor quantization (0 = ideal). */
    Kelvin sensorQuantum = 0.0;

    /** Experiment-level seed, combined with the profile seed. */
    std::uint64_t runSeed = 1;

    /** Start from the steady state of the first interval's power
     * (clamped at the threshold) instead of ambient. */
    bool warmStart = true;
};

/** Per-block temperature summary. */
struct BlockTempStats
{
    std::string name;
    Kelvin avg = 0;  ///< average over non-stalled samples
    Kelvin max = 0;  ///< maximum over all samples
};

/** End-of-run results. */
struct SimResult
{
    std::string benchmark;
    double ipc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stallCycles = 0;
    DtmStats dtm;
    std::vector<BlockTempStats> blocks;
    ActivityRecord activity; ///< totals over the whole run

    /** Temperature stats of a named block; fatal if absent. */
    const BlockTempStats& block(const std::string& name) const;
};

class CmpSimulator;

/** Closed-loop simulator for one benchmark run on one core. */
class Simulator
{
  public:
    Simulator(const SimConfig& config,
              const BenchmarkProfile& profile);
    ~Simulator();

    /**
     * Run until the core has advanced `max_cycles` cycles
     * (including stall cycles).
     */
    SimResult run(std::uint64_t max_cycles);

    /**
     * Advance whole sampling intervals until the core cycle
     * reaches `end_cycle` (an absolute cycle, so checkpointed runs
     * can continue toward the same endpoint). A cooling stall
     * triggered inside the last interval completes before this
     * returns, exactly as in run().
     */
    void runTo(std::uint64_t end_cycle);

    /** Build the end-of-run result from the measured-region
     * statistics (everything since the last resetMeasurement(),
     * or since construction). */
    SimResult result() const;

    /** Current core cycle (checkpoint loop bookkeeping). */
    std::uint64_t cycle() const;

    /**
     * Serialize the complete simulation state as a versioned
     * checkpoint (see sim/checkpoint/checkpoint.hh). The returned
     * bytes restore bit-identically via restoreCheckpoint().
     */
    std::string saveCheckpoint() const;

    /**
     * Restore a checkpoint produced by saveCheckpoint(). The
     * simulator must have been constructed with the same
     * benchmark, floorplan variant, and run seed; mismatches are
     * fatal(). See CmpSimulator::restoreCheckpoint for the
     * config-derived controls re-asserted afterwards.
     */
    void restoreCheckpoint(const std::string& bytes);

    /** Zero the measured-region statistics; result() then reports
     * relative to this point (warm-state forking). */
    void resetMeasurement();

    /** Access to the live pieces (examples, tests). */
    RcModel& thermalModel();
    const Floorplan& floorplan() const;

    /** Attach a trace recorder (not owned); nullptr detaches. */
    void setTrace(ThermalTrace* trace);

  private:
    std::unique_ptr<CmpSimulator> engine_;
};

} // namespace tempest

#endif // TEMPEST_SIM_SIMULATOR_HH
