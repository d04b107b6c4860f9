#include "sim/simulator.hh"

#include <algorithm>
#include <cassert>

#include "common/log.hh"
#include "common/profiler.hh"
#include "sim/checkpoint/checkpoint.hh"

namespace tempest
{

namespace
{

// Checkpoint chunk ids, one per component (see DESIGN.md §11).
constexpr std::uint32_t kChunkMeta = chunkId("META");
constexpr std::uint32_t kChunkCore = chunkId("CORE");
constexpr std::uint32_t kChunkWorkload = chunkId("WKLD");
constexpr std::uint32_t kChunkIqInt = chunkId("IQIN");
constexpr std::uint32_t kChunkIqFp = chunkId("IQFP");
constexpr std::uint32_t kChunkAlus = chunkId("ALUP");
constexpr std::uint32_t kChunkRegfile = chunkId("REGF");
constexpr std::uint32_t kChunkCaches = chunkId("CACH");
constexpr std::uint32_t kChunkThermal = chunkId("THRM");
constexpr std::uint32_t kChunkSensors = chunkId("SENS");
constexpr std::uint32_t kChunkDtm = chunkId("DTMS");
constexpr std::uint32_t kChunkSimStats = chunkId("SIMR");

} // namespace

const BlockTempStats&
SimResult::block(const std::string& name) const
{
    for (const BlockTempStats& b : blocks) {
        if (b.name == name)
            return b;
    }
    fatal("SimResult has no block named '", name, "'");
}

Simulator::Simulator(const SimConfig& config,
                     const BenchmarkProfile& profile)
    : config_(config),
      floorplan_(Floorplan::ev6Like(config.variant))
{
    config_.pipeline.validate();
    config_.thermal.validate();

    core_ = std::make_unique<OooCore>(config_.pipeline, profile,
                                      config_.runSeed, &arena_);
    power_ = std::make_unique<PowerModel>(
        config_.energy, floorplan_, config_.pipeline,
        config_.pipeline.frequencyHz);
    rc_ = std::make_unique<RcModel>(floorplan_, config_.thermal);
    sensors_ = std::make_unique<SensorBank>(
        *rc_, config_.sensorQuantum, 0.0, config_.runSeed ^ 0x5e);
    dtm_ = std::make_unique<ResourceBalancingDtm>(
        config_.dtm, *core_, floorplan_);

    blockAccum_.resize(
        static_cast<std::size_t>(floorplan_.numBlocks()));
}

void
Simulator::runInterval(bool stalled, std::uint64_t cycles)
{
    ActivityRecord interval;
    if (stalled)
        core_->stallCycles(cycles, interval);
    else
        core_->run(cycles, interval);

    {
        TEMPEST_PROF_SCOPE(ProfStage::Power);
        power_->blockPowers(interval, powerScratch_);
        rc_->setPowers(powerScratch_);
    }

    if (!warmed_) {
        // Warm start: steady state of the first interval's power,
        // clamped to the threshold per block (a managed processor
        // never sits above it; package nodes keep their steady
        // values).
        warmed_ = true;
        if (config_.warmStart) {
            rc_->solveSteadyState();
            for (int b = 0; b < rc_->numBlocks(); ++b) {
                if (rc_->temperature(b) >
                    config_.dtm.maxTemperature) {
                    rc_->setTemperature(
                        b, config_.dtm.maxTemperature);
                }
            }
        }
    }

    const Seconds dt =
        static_cast<double>(interval.cycles) /
        config_.pipeline.frequencyHz;
    {
        TEMPEST_PROF_SCOPE(ProfStage::Thermal);
        rc_->step(dt);
    }

    total_.add(interval);

    // Batched interval pass: one loop over the packed per-block
    // accumulators fuses the sensor read (ascending block order, so
    // the sensor RNG draw order matches SensorBank::readAll), the
    // running average and peak updates, and the hottest-block
    // reduction the DTM wants — instead of three separate sweeps
    // over parallel vectors.
    Kelvin hottest = 0;
    const int num_blocks = floorplan_.numBlocks();
    tempsScratch_.resize(static_cast<std::size_t>(num_blocks));
    {
        TEMPEST_PROF_SCOPE(ProfStage::Sensor);
        for (int b = 0; b < num_blocks; ++b) {
            const auto i = static_cast<std::size_t>(b);
            const Kelvin t = sensors_->read(b);
            tempsScratch_[i] = t;
            BlockThermalAccum& acc = blockAccum_[i];
            if (!stalled)
                acc.avg.sample(t);
            acc.maxT = std::max(acc.maxT, t);
            hottest = std::max(hottest, t);
        }
    }
    const std::vector<Kelvin>& temps = tempsScratch_;

    if (trace_) {
        trace_->record(core_->cycle(), stalled,
                       interval.instructions, temps,
                       powerScratch_);
    }

    bool global_stall = false;
    if (!stalled) {
        TEMPEST_PROF_SCOPE(ProfStage::Dtm);
        global_stall = dtm_->sample(temps, hottest) ==
                       DtmAction::GlobalStall;
    }
    if (global_stall) {
        // Stall for the cooling time, advanced in interval-sized
        // chunks so the thermal trace stays smooth, plus a final
        // partial chunk covering the remainder so the stall spans
        // the cooling time exactly (truncating to whole intervals
        // under-stalled by up to one interval per trigger). The
        // cooling time scales with the thermal time compression.
        const Seconds cooling =
            config_.dtm.coolingTime * config_.thermal.timeScale;
        const auto cooling_cycles = static_cast<std::uint64_t>(
            cooling * config_.pipeline.frequencyHz);
        std::uint64_t stalled_cycles = 0;
        while (stalled_cycles < cooling_cycles) {
            const std::uint64_t n =
                std::min(cooling_cycles - stalled_cycles,
                         config_.sampleIntervalCycles);
            runInterval(/*stalled=*/true, n);
            stalled_cycles += n;
        }
        assert(stalled_cycles >= cooling_cycles);
    }
}

void
Simulator::runTo(std::uint64_t end_cycle)
{
    while (core_->cycle() < end_cycle)
        runInterval(/*stalled=*/false, config_.sampleIntervalCycles);
}

SimResult
Simulator::result() const
{
    SimResult result;
    result.benchmark = core_->profile().name;
    result.cycles = core_->cycle() - measureStartCycle_;
    result.instructions =
        core_->committed() - measureStartCommitted_;
    result.ipc =
        result.cycles
            ? static_cast<double>(result.instructions) /
                  static_cast<double>(result.cycles)
            : 0.0;
    result.stallCycles = total_.stallCycles;
    result.dtm = dtm_->stats();
    result.activity = total_;
    result.blocks.resize(
        static_cast<std::size_t>(floorplan_.numBlocks()));
    for (int b = 0; b < floorplan_.numBlocks(); ++b) {
        const auto i = static_cast<std::size_t>(b);
        result.blocks[i].name = floorplan_.block(b).name;
        result.blocks[i].avg = blockAccum_[i].avg.mean();
        result.blocks[i].max = blockAccum_[i].maxT;
    }
    return result;
}

SimResult
Simulator::run(std::uint64_t max_cycles)
{
    runTo(core_->cycle() + max_cycles);
    return result();
}

void
Simulator::resetMeasurement()
{
    total_.clear();
    for (BlockThermalAccum& acc : blockAccum_) {
        acc.avg.reset();
        acc.maxT = 0.0;
    }
    dtm_->resetStats();
    measureStartCycle_ = core_->cycle();
    measureStartCommitted_ = core_->committed();
}

std::string
Simulator::saveCheckpoint() const
{
    CheckpointWriter cp;

    StateWriter& meta = cp.chunk(kChunkMeta);
    meta.str(core_->profile().name);
    meta.u64(config_.runSeed);
    meta.i32(floorplan_.numBlocks());
    meta.u64(config_.sampleIntervalCycles);
    meta.u64(core_->cycle());

    core_->saveState(cp.chunk(kChunkCore));
    core_->stream().saveState(cp.chunk(kChunkWorkload));
    core_->intQueue().saveState(cp.chunk(kChunkIqInt));
    core_->fpQueue().saveState(cp.chunk(kChunkIqFp));
    core_->alus().saveState(cp.chunk(kChunkAlus));
    core_->intRegfile().saveState(cp.chunk(kChunkRegfile));
    core_->caches().saveState(cp.chunk(kChunkCaches));
    rc_->saveState(cp.chunk(kChunkThermal));
    sensors_->saveState(cp.chunk(kChunkSensors));
    dtm_->saveState(cp.chunk(kChunkDtm));

    StateWriter& stats = cp.chunk(kChunkSimStats);
    saveActivity(stats, total_);
    stats.u32(static_cast<std::uint32_t>(blockAccum_.size()));
    for (const BlockThermalAccum& acc : blockAccum_) {
        stats.u64(acc.avg.count());
        stats.f64(acc.avg.sum());
        stats.f64(acc.avg.min());
        stats.f64(acc.avg.max());
    }
    for (const BlockThermalAccum& acc : blockAccum_)
        stats.f64(acc.maxT);
    stats.boolean(warmed_);
    stats.u64(measureStartCycle_);
    stats.u64(measureStartCommitted_);

    return cp.serialize();
}

void
Simulator::restoreCheckpoint(const std::string& bytes)
{
    const CheckpointReader cp(bytes);

    StateReader meta = cp.chunk(kChunkMeta);
    const std::string benchmark = meta.str();
    const std::uint64_t seed = meta.u64();
    const int blocks = meta.i32();
    if (benchmark != core_->profile().name) {
        fatal("checkpoint is for benchmark '", benchmark,
              "', this simulator runs '", core_->profile().name,
              "'");
    }
    if (seed != config_.runSeed) {
        fatal("checkpoint was taken with run seed ", seed,
              ", this simulator uses ", config_.runSeed);
    }
    if (blocks != floorplan_.numBlocks()) {
        fatal("checkpoint floorplan has ", blocks,
              " blocks, this simulator has ",
              floorplan_.numBlocks(),
              " (different floorplan variant?)");
    }

    {
        StateReader r = cp.chunk(kChunkCore);
        core_->loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkWorkload);
        core_->stream().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkIqInt);
        core_->intQueue().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkIqFp);
        core_->fpQueue().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkAlus);
        core_->alus().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkRegfile);
        core_->intRegfile().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkCaches);
        core_->caches().loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkThermal);
        rc_->loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkSensors);
        sensors_->loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkDtm);
        dtm_->loadState(r);
    }
    {
        StateReader r = cp.chunk(kChunkSimStats);
        loadActivity(r, total_);
        const auto n = r.u32();
        if (n != blockAccum_.size()) {
            fatal("checkpoint block statistics cover ", n,
                  " blocks, this simulator has ",
                  blockAccum_.size());
        }
        for (BlockThermalAccum& acc : blockAccum_) {
            const std::uint64_t count = r.u64();
            const double sum = r.f64();
            const double min = r.f64();
            const double max = r.f64();
            acc.avg.restore(count, sum, min, max);
        }
        for (BlockThermalAccum& acc : blockAccum_)
            acc.maxT = r.f64();
        warmed_ = r.boolean();
        measureStartCycle_ = r.u64();
        measureStartCommitted_ = r.u64();
    }

    // Re-assert config-derived controls: a warm-state fork
    // restores a snapshot taken under the (neutral) warm-up
    // configuration, and this simulator's own DTM config must win
    // over whatever the snapshot carried.
    core_->setRoundRobin(config_.dtm.roundRobin);
    core_->intRegfile().setMapping(config_.dtm.mapping);
    if (!config_.dtm.fetchThrottling)
        core_->setFetchInterval(1);
}

} // namespace tempest
