#include "sim/cmp/cmp_simulator.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/log.hh"
#include "common/profiler.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace tempest
{

namespace
{

// Checkpoint chunk ids (see DESIGN.md §11). Per-job chunks vary
// the last FourCC character ("JB00".."JB07"), which chunkId packs
// into the high byte.
constexpr std::uint32_t kChunkCmpMeta = chunkId("CMPM");
constexpr std::uint32_t kChunkCmpDtm = chunkId("CMPD");
constexpr std::uint32_t kChunkThermal = chunkId("CTHM");
constexpr std::uint32_t kChunkSensors = chunkId("CSNS");

std::uint32_t
jobChunkId(int job)
{
    return chunkId("JB00") +
           (static_cast<std::uint32_t>(job) << 24);
}

std::uint64_t
hashU64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a64(&v, sizeof(v), h);
}

std::uint64_t
hashF64(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return hashU64(h, bits);
}

/** SPEC2000 profiles for config.benchmarks; empty means "eon". */
std::vector<BenchmarkProfile>
spec2000Profiles(const CmpSimConfig& config)
{
    std::vector<BenchmarkProfile> profiles;
    for (const std::string& name : config.benchmarks)
        profiles.push_back(spec2000(name));
    if (profiles.empty())
        profiles.push_back(spec2000("eon"));
    return profiles;
}

} // namespace

void
CmpStackConfig::validate() const
{
    if (dramEnergyPerAccess < 0)
        fatal("stack.dram_energy_per_access must be >= 0");
    if (dramStaticW < 0)
        fatal("stack.dram_static_w must be >= 0");
}

void
CmpSimConfig::validate() const
{
    if (cores < 1 || cores > 8)
        fatal("cmp.cores out of range [1, 8]");
    if (benchmarks.size() > 1 &&
        benchmarks.size() != static_cast<std::size_t>(cores)) {
        fatal("cmp.benchmarks names ", benchmarks.size(),
              " benchmarks for ", cores,
              " cores (use one entry or one per core)");
    }
    migration.validate();
    stack.validate();
}

CmpSimulator::CmpSimulator(const CmpSimConfig& config)
    : CmpSimulator(config, spec2000Profiles(config))
{}

CmpSimulator::CmpSimulator(
    const CmpSimConfig& config,
    const std::vector<BenchmarkProfile>& profiles)
    : config_(config),
      corePlan_(Floorplan::ev6Like(config.base.variant)),
      // One core without a DRAM layer is the single-core plan
      // itself; copy it rather than build it a second time.
      plan_(config.cores == 1 && !config.stack.dram
                ? corePlan_
                : Floorplan::cmpTiled(config.base.variant,
                                      config.cores, config.sharedL2,
                                      config.stack.dram))
{
    // The benchmark list names the profiles: one entry is
    // replicated across cores.
    if (profiles.empty())
        fatal("CmpSimulator needs at least one benchmark profile");
    config_.benchmarks.clear();
    for (const BenchmarkProfile& p : profiles)
        config_.benchmarks.push_back(p.name);
    config_.validate();
    config_.base.pipeline.validate();
    config_.base.thermal.validate();
    if (config_.benchmarks.size() == 1 && config_.cores > 1) {
        config_.benchmarks.assign(
            static_cast<std::size_t>(config_.cores),
            config_.benchmarks.front());
    }

    coreBlocks_ = corePlan_.numBlocks();
    const int tiles_end = config_.cores * coreBlocks_;
    const bool has_l2 = config_.sharedL2 && config_.cores > 1;
    l2Index_ = has_l2 ? tiles_end : -1;
    dramBase_ =
        config_.stack.dram ? tiles_end + (has_l2 ? 1 : 0) : -1;
    if (has_l2) {
        const Block& l2 = plan_.block(l2Index_);
        l2Area_ = l2.width * l2.height;
    }

    for (int j = 0; j < config_.cores; ++j) {
        auto e = std::make_unique<Engine>();
        const BenchmarkProfile& profile =
            profiles[profiles.size() == 1
                         ? 0
                         : static_cast<std::size_t>(j)];
        e->benchmark = profile.name;
        // Core 0 runs on the configured seed verbatim (the N=1
        // bit-identity anchor); the rest get stable per-core
        // derivations so sibling cores never share RNG streams.
        e->seed = j == 0
                      ? config_.base.runSeed
                      : deriveRunSeed(config_.base.runSeed,
                                      e->benchmark,
                                      "cmp.core" +
                                          std::to_string(j));
        e->core = std::make_unique<OooCore>(
            config_.base.pipeline, profile, e->seed, &e->arena);
        e->dtm = std::make_unique<ResourceBalancingDtm>(
            config_.base.dtm, *e->core, corePlan_);
        e->accum.resize(static_cast<std::size_t>(coreBlocks_));
        engines_.push_back(std::move(e));
    }

    power_ = std::make_unique<PowerModel>(
        config_.base.energy, corePlan_, config_.base.pipeline,
        config_.base.pipeline.frequencyHz);
    rc_ = std::make_unique<RcModel>(plan_, config_.base.thermal);
    sensors_ = std::make_unique<SensorBank>(
        *rc_, config_.base.sensorQuantum, 0.0,
        config_.base.runSeed ^ 0x5e);
    cmpDtm_ = std::make_unique<CmpDtmPolicy>(
        config_.migration, config_.base.dtm.maxTemperature,
        config_.cores);

    tileOfJob_.resize(static_cast<std::size_t>(config_.cores));
    jobOfTile_.resize(static_cast<std::size_t>(config_.cores));
    for (int j = 0; j < config_.cores; ++j) {
        tileOfJob_[static_cast<std::size_t>(j)] = j;
        jobOfTile_[static_cast<std::size_t>(j)] = j;
    }

    // The cooling time scales with the thermal time compression.
    const Seconds cooling = config_.base.dtm.coolingTime *
                            config_.base.thermal.timeScale;
    coolingCycles_ = static_cast<std::uint64_t>(
        cooling * config_.base.pipeline.frequencyHz);

    sharedAccum_.resize(static_cast<std::size_t>(
        plan_.numBlocks() - tiles_end));
    intervalScratch_.resize(engines_.size());
    stalledScratch_.resize(engines_.size());
    powerScratch_.assign(
        static_cast<std::size_t>(plan_.numBlocks()), 0.0);
    dieTempScratch_.assign(
        static_cast<std::size_t>(plan_.numBlocks()), 0.0);
    tileTempScratch_.assign(
        static_cast<std::size_t>(config_.cores),
        std::vector<Kelvin>(
            static_cast<std::size_t>(coreBlocks_), 0.0));
    tileHottestScratch_.resize(
        static_cast<std::size_t>(config_.cores));
    eligibleScratch_.resize(static_cast<std::size_t>(config_.cores));
}

bool
CmpSimulator::anyStallPending() const
{
    for (const auto& e : engines_) {
        if (e->stallRemaining > 0)
            return true;
    }
    return false;
}

void
CmpSimulator::step(std::uint64_t cycles)
{
    const int B = coreBlocks_;
    const int jobs = config_.cores;

    // 1. Advance every core over the same cycle range; stalled
    // cores burn clock-gated cycles.
    for (int j = 0; j < jobs; ++j) {
        Engine& e = *engines_[static_cast<std::size_t>(j)];
        ActivityRecord& iv =
            intervalScratch_[static_cast<std::size_t>(j)];
        iv = ActivityRecord{};
        const bool stalled = e.stallRemaining > 0;
        stalledScratch_[static_cast<std::size_t>(j)] =
            stalled ? 1 : 0;
        if (stalled)
            e.core->stallCycles(cycles, iv);
        else
            e.core->run(cycles, iv);
    }

    const Seconds dt = static_cast<double>(cycles) /
                       config_.base.pipeline.frequencyHz;

    // 2. Per-tile powers through the one shared power model, then
    // the synthesized shared blocks.
    {
        TEMPEST_PROF_SCOPE(ProfStage::Power);
        for (int j = 0; j < jobs; ++j) {
            power_->blockPowers(
                intervalScratch_[static_cast<std::size_t>(j)],
                corePowerScratch_);
            const int base =
                tileOfJob_[static_cast<std::size_t>(j)] * B;
            for (int b = 0; b < B; ++b) {
                powerScratch_[static_cast<std::size_t>(base + b)] =
                    corePowerScratch_[static_cast<std::size_t>(b)];
            }
        }
        if (l2Index_ >= 0) {
            // The core power model deliberately leaves L2 dynamic
            // energy unattributed; in the CMP plan it lands on the
            // shared strip, fed by every core's interval traffic.
            std::uint64_t l2_accesses = 0;
            for (int j = 0; j < jobs; ++j) {
                l2_accesses +=
                    intervalScratch_[static_cast<std::size_t>(j)]
                        .l2Accesses;
            }
            powerScratch_[static_cast<std::size_t>(l2Index_)] =
                static_cast<double>(l2_accesses) *
                    config_.base.energy.l2Access / dt +
                l2Area_ * config_.base.energy.idleWattsPerSquareMeter;
        }
        if (dramBase_ >= 0) {
            // A DRAM bank sits over each tile and is heated by the L2
            // miss traffic of whichever job currently runs there.
            for (int t = 0; t < jobs; ++t) {
                Engine& e = *engines_[static_cast<std::size_t>(
                    jobOfTile_[static_cast<std::size_t>(t)])];
                const std::uint64_t misses =
                    e.core->caches().l2().misses();
                const std::uint64_t delta = misses - e.prevL2Misses;
                e.prevL2Misses = misses;
                powerScratch_[static_cast<std::size_t>(dramBase_ + t)] =
                    static_cast<double>(delta) *
                        config_.stack.dramEnergyPerAccess / dt +
                    config_.stack.dramStaticW;
            }
        }
        rc_->setPowers(powerScratch_);
    }

    if (!warmed_) {
        // Warm start: steady state of the first interval's power,
        // clamped to the threshold per block (a managed processor
        // never sits above it; package nodes keep their steady
        // values, stacked DRAM banks are clamped too).
        warmed_ = true;
        if (config_.base.warmStart) {
            rc_->solveSteadyState();
            for (int b = 0; b < rc_->numBlocks(); ++b) {
                if (rc_->temperature(b) >
                    config_.base.dtm.maxTemperature) {
                    rc_->setTemperature(
                        b, config_.base.dtm.maxTemperature);
                }
            }
        }
    }

    {
        TEMPEST_PROF_SCOPE(ProfStage::Thermal);
        rc_->step(dt);
    }

    for (int j = 0; j < jobs; ++j) {
        engines_[static_cast<std::size_t>(j)]->total.add(
            intervalScratch_[static_cast<std::size_t>(j)]);
    }

    // 3. One fused sensor pass in ascending block order (the
    // sensor RNG draw order is part of the bit-identity contract),
    // scattering each reading to the tile's current job.
    std::fill(tileHottestScratch_.begin(),
              tileHottestScratch_.end(), 0.0);
    const int num_blocks = plan_.numBlocks();
    const int tiles_end = jobs * B;
    {
        TEMPEST_PROF_SCOPE(ProfStage::Sensor);
        for (int b = 0; b < num_blocks; ++b) {
            const Kelvin t = sensors_->read(b);
            dieTempScratch_[static_cast<std::size_t>(b)] = t;
            if (b < tiles_end) {
                const int tile = b / B;
                const int local = b % B;
                const int j =
                    jobOfTile_[static_cast<std::size_t>(tile)];
                tileTempScratch_[static_cast<std::size_t>(tile)]
                                [static_cast<std::size_t>(local)] = t;
                Engine::ThermalAccum& acc =
                    engines_[static_cast<std::size_t>(j)]
                        ->accum[static_cast<std::size_t>(local)];
                if (!stalledScratch_[static_cast<std::size_t>(j)])
                    acc.avg.sample(t);
                acc.maxT = std::max(acc.maxT, t);
                tileHottestScratch_[static_cast<std::size_t>(tile)] =
                    std::max(tileHottestScratch_
                                 [static_cast<std::size_t>(tile)],
                             t);
            } else {
                // Shared blocks have no per-job stall notion; their
                // average covers every interval.
                Engine::ThermalAccum& acc =
                    sharedAccum_[static_cast<std::size_t>(
                        b - tiles_end)];
                acc.avg.sample(t);
                acc.maxT = std::max(acc.maxT, t);
            }
        }
    }

    if (trace_) {
        // One whole-die sample; "stalled" when every core is.
        bool all_stalled = true;
        std::uint64_t instructions = 0;
        for (int j = 0; j < jobs; ++j) {
            const auto i = static_cast<std::size_t>(j);
            all_stalled = all_stalled && stalledScratch_[i];
            instructions += intervalScratch_[i].instructions;
        }
        trace_->record(clockCycle_ + cycles, all_stalled,
                       instructions, dieTempScratch_,
                       powerScratch_);
    }

    // 4. Per-core DTM, then the stall bookkeeping. A GlobalStall
    // freezes only the triggering core; the thermal clock keeps
    // every other core running, chunked so stall boundaries land
    // on shared thermal steps.
    {
        TEMPEST_PROF_SCOPE(ProfStage::Dtm);
        for (int j = 0; j < jobs; ++j) {
            if (stalledScratch_[static_cast<std::size_t>(j)])
                continue;
            Engine& e = *engines_[static_cast<std::size_t>(j)];
            const int tile = tileOfJob_[static_cast<std::size_t>(j)];
            const bool global_stall =
                e.dtm->sample(
                    tileTempScratch_[static_cast<std::size_t>(tile)],
                    tileHottestScratch_[static_cast<std::size_t>(
                        tile)]) == DtmAction::GlobalStall;
            if (global_stall)
                e.stallRemaining = coolingCycles_;
        }
    }
    for (int j = 0; j < jobs; ++j) {
        if (stalledScratch_[static_cast<std::size_t>(j)]) {
            engines_[static_cast<std::size_t>(j)]->stallRemaining -=
                cycles;
        }
    }

    // 5. Cross-core migration. Tiles mid-stall are ineligible on
    // either end of a swap.
    if (config_.migration.enabled && jobs > 1) {
        for (int t = 0; t < jobs; ++t) {
            eligibleScratch_[static_cast<std::size_t>(t)] =
                engines_[static_cast<std::size_t>(
                             jobOfTile_[static_cast<std::size_t>(
                                 t)])]
                            ->stallRemaining == 0
                    ? 1
                    : 0;
        }
        const CmpDtmPolicy::Decision d =
            cmpDtm_->evaluate(tileHottestScratch_,
                              eligibleScratch_);
        if (d.migrate)
            migrate(d.hotTile, d.coolTile);
    }

    clockCycle_ += cycles;
}

void
CmpSimulator::runTo(std::uint64_t end_cycle)
{
    // Stalls are atomic: once any core owes stall cycles the
    // lockstep loop keeps stepping past end_cycle until the debt
    // drains. The continuation test is pure simulator state (never
    // end_cycle), so piecewise runTo calls — checkpoint loops —
    // replay the same step sequence as a monolithic run.
    while (clockCycle_ < end_cycle || anyStallPending())
        stepOnce();
}

void
CmpSimulator::stepOnce()
{
    std::uint64_t n = config_.base.sampleIntervalCycles;
    for (const auto& e : engines_) {
        if (e->stallRemaining > 0)
            n = std::min(n, e->stallRemaining);
    }
    step(n);
}

CmpResult
CmpSimulator::run(std::uint64_t max_cycles)
{
    runTo(clockCycle_ + max_cycles);
    return result();
}

CmpResult
CmpSimulator::result() const
{
    CmpResult result;
    for (const auto& ep : engines_) {
        const Engine& e = *ep;
        SimResult r;
        r.benchmark = e.core->profile().name;
        r.cycles = e.core->cycle() - measureStartCycle_;
        r.instructions =
            e.core->committed() - e.measureStartCommitted;
        r.ipc = r.cycles
                    ? static_cast<double>(r.instructions) /
                          static_cast<double>(r.cycles)
                    : 0.0;
        r.stallCycles = e.total.stallCycles;
        r.dtm = e.dtm->stats();
        r.activity = e.total;
        r.blocks.resize(static_cast<std::size_t>(coreBlocks_));
        for (int b = 0; b < coreBlocks_; ++b) {
            const auto i = static_cast<std::size_t>(b);
            r.blocks[i].name = corePlan_.block(b).name;
            r.blocks[i].avg = e.accum[i].avg.mean();
            r.blocks[i].max = e.accum[i].maxT;
        }
        result.cores.push_back(std::move(r));
    }
    const int tiles_end = config_.cores * coreBlocks_;
    result.shared.resize(sharedAccum_.size());
    for (std::size_t s = 0; s < sharedAccum_.size(); ++s) {
        result.shared[s].name =
            plan_.block(tiles_end + static_cast<int>(s)).name;
        result.shared[s].avg = sharedAccum_[s].avg.mean();
        result.shared[s].max = sharedAccum_[s].maxT;
    }
    result.migration = cmpDtm_->stats();
    result.tileOfJob = tileOfJob_;
    result.cycles = clockCycle_ - measureStartCycle_;
    return result;
}

void
CmpSimulator::resetMeasurement()
{
    for (const auto& e : engines_) {
        e->total.clear();
        for (Engine::ThermalAccum& acc : e->accum)
            acc = Engine::ThermalAccum{};
        e->dtm->resetStats();
        e->measureStartCommitted = e->core->committed();
    }
    for (Engine::ThermalAccum& acc : sharedAccum_)
        acc = Engine::ThermalAccum{};
    cmpDtm_->resetStats();
    measureStartCycle_ = clockCycle_;
}

const CmpDtmStats&
CmpSimulator::migrationStats() const
{
    return cmpDtm_->stats();
}

void
CmpSimulator::saveEngineContext(StateWriter& w,
                                const Engine& e) const
{
    e.core->saveState(w);
    e.core->stream().saveState(w);
    e.core->intQueue().saveState(w);
    e.core->fpQueue().saveState(w);
    e.core->alus().saveState(w);
    e.core->intRegfile().saveState(w);
    e.core->caches().saveState(w);
    e.dtm->saveState(w);
}

void
CmpSimulator::loadEngineContext(StateReader& r, Engine& e)
{
    e.core->loadState(r);
    e.core->stream().loadState(r);
    e.core->intQueue().loadState(r);
    e.core->fpQueue().loadState(r);
    e.core->alus().loadState(r);
    e.core->intRegfile().loadState(r);
    e.core->caches().loadState(r);
    e.dtm->loadState(r);
}

void
CmpSimulator::migrate(int hot_tile, int cool_tile)
{
    const int jh = jobOfTile_[static_cast<std::size_t>(hot_tile)];
    const int jc = jobOfTile_[static_cast<std::size_t>(cool_tile)];
    Engine& eh = *engines_[static_cast<std::size_t>(jh)];
    Engine& ec = *engines_[static_cast<std::size_t>(jc)];

    // Checkpoint-assisted swap: serialize both job contexts
    // through the real StateWriter visitor and restore them — the
    // same path a live migration's drain/refill would take — so
    // the byte count pricing the transfer is the measured context
    // size, not an estimate.
    StateWriter wh;
    StateWriter wc;
    saveEngineContext(wh, eh);
    saveEngineContext(wc, ec);
    const std::uint64_t bytes = wh.size() + wc.size();
    StateReader rh(wh.bytes());
    StateReader rcool(wc.bytes());
    loadEngineContext(rh, eh);
    loadEngineContext(rcool, ec);

    tileOfJob_[static_cast<std::size_t>(jh)] = cool_tile;
    tileOfJob_[static_cast<std::size_t>(jc)] = hot_tile;
    jobOfTile_[static_cast<std::size_t>(hot_tile)] = jc;
    jobOfTile_[static_cast<std::size_t>(cool_tile)] = jh;

    const std::uint64_t stall =
        config_.migration.baseStallCycles +
        bytes / config_.migration.busBytesPerCycle;
    // Eligibility guaranteed both ends were stall-free, so these
    // are plain assignments.
    eh.stallRemaining = stall;
    ec.stallRemaining = stall;
    cmpDtm_->recordMigration(bytes, 2 * stall);
}

std::string
CmpSimulator::saveCheckpoint() const
{
    CheckpointWriter cp;

    StateWriter& meta = cp.chunk(kChunkCmpMeta);
    meta.u32(static_cast<std::uint32_t>(config_.cores));
    for (const auto& e : engines_) {
        meta.str(e->benchmark);
        meta.u64(e->seed);
    }
    meta.i32(plan_.numBlocks());
    meta.u64(config_.base.sampleIntervalCycles);
    meta.u64(clockCycle_);
    meta.boolean(l2Index_ >= 0);
    meta.boolean(dramBase_ >= 0);

    for (int j = 0; j < config_.cores; ++j) {
        const Engine& e = *engines_[static_cast<std::size_t>(j)];
        StateWriter& w = cp.chunk(jobChunkId(j));
        saveEngineContext(w, e);
        w.u64(e.stallRemaining);
        w.u64(e.prevL2Misses);
        saveActivity(w, e.total);
        for (const Engine::ThermalAccum& acc : e.accum) {
            w.u64(acc.avg.count());
            w.f64(acc.avg.sum());
            w.f64(acc.avg.min());
            w.f64(acc.avg.max());
        }
        for (const Engine::ThermalAccum& acc : e.accum)
            w.f64(acc.maxT);
        w.u64(e.measureStartCommitted);
    }

    rc_->saveState(cp.chunk(kChunkThermal));
    sensors_->saveState(cp.chunk(kChunkSensors));

    StateWriter& d = cp.chunk(kChunkCmpDtm);
    cmpDtm_->saveState(d);
    for (int t : tileOfJob_)
        d.i32(t);
    d.boolean(warmed_);
    d.u32(static_cast<std::uint32_t>(sharedAccum_.size()));
    for (const Engine::ThermalAccum& acc : sharedAccum_) {
        d.u64(acc.avg.count());
        d.f64(acc.avg.sum());
        d.f64(acc.avg.min());
        d.f64(acc.avg.max());
    }
    for (const Engine::ThermalAccum& acc : sharedAccum_)
        d.f64(acc.maxT);
    d.u64(measureStartCycle_);

    return cp.serialize();
}

void
CmpSimulator::restoreCheckpoint(const std::string& bytes)
{
    const CheckpointReader cp(bytes);

    StateReader meta = cp.chunk(kChunkCmpMeta);
    const auto cores = static_cast<int>(meta.u32());
    if (cores != config_.cores) {
        fatal("checkpoint has ", cores, " cores, this simulator ",
              config_.cores);
    }
    for (int j = 0; j < cores; ++j) {
        const Engine& e = *engines_[static_cast<std::size_t>(j)];
        const std::string benchmark = meta.str();
        const std::uint64_t seed = meta.u64();
        if (benchmark != e.benchmark) {
            fatal("checkpoint core ", j, " runs '", benchmark,
                  "', this simulator '", e.benchmark, "'");
        }
        if (seed != e.seed) {
            fatal("checkpoint core ", j, " uses seed ", seed,
                  ", this simulator ", e.seed);
        }
    }
    const int blocks = meta.i32();
    if (blocks != plan_.numBlocks()) {
        fatal("checkpoint floorplan has ", blocks,
              " blocks, this simulator has ", plan_.numBlocks());
    }
    meta.u64(); // sample interval, informational
    const std::uint64_t clock = meta.u64();
    const bool has_l2 = meta.boolean();
    const bool has_dram = meta.boolean();
    if (has_l2 != (l2Index_ >= 0) || has_dram != (dramBase_ >= 0))
        fatal("checkpoint shared-block layout mismatch");

    for (int j = 0; j < cores; ++j) {
        Engine& e = *engines_[static_cast<std::size_t>(j)];
        StateReader r = cp.chunk(jobChunkId(j));
        loadEngineContext(r, e);
        e.stallRemaining = r.u64();
        e.prevL2Misses = r.u64();
        loadActivity(r, e.total);
        for (Engine::ThermalAccum& acc : e.accum) {
            const std::uint64_t count = r.u64();
            const double sum = r.f64();
            const double min = r.f64();
            const double max = r.f64();
            acc.avg.restore(count, sum, min, max);
        }
        for (Engine::ThermalAccum& acc : e.accum)
            acc.maxT = r.f64();
        e.measureStartCommitted = r.u64();
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
        StateReader r = cp.chunk(kChunkCmpDtm);
        cmpDtm_->loadState(r);
        for (int j = 0; j < cores; ++j) {
            const int t = r.i32();
            if (t < 0 || t >= cores)
                fatal("checkpoint placement tile out of range");
            tileOfJob_[static_cast<std::size_t>(j)] = t;
            jobOfTile_[static_cast<std::size_t>(t)] = j;
        }
        warmed_ = r.boolean();
        const auto n = r.u32();
        if (n != sharedAccum_.size()) {
            fatal("checkpoint shared-block statistics cover ", n,
                  " blocks, this simulator has ",
                  sharedAccum_.size());
        }
        for (Engine::ThermalAccum& acc : sharedAccum_) {
            const std::uint64_t count = r.u64();
            const double sum = r.f64();
            const double min = r.f64();
            const double max = r.f64();
            acc.avg.restore(count, sum, min, max);
        }
        for (Engine::ThermalAccum& acc : sharedAccum_)
            acc.maxT = r.f64();
        measureStartCycle_ = r.u64();
    }
    clockCycle_ = clock;

    // Re-assert config-derived controls: a warm-state fork
    // restores a snapshot taken under the (neutral) warm-up
    // configuration, and this simulator's own DTM config must win
    // over whatever the snapshot carried.
    for (const auto& e : engines_) {
        e->core->setRoundRobin(config_.base.dtm.roundRobin);
        e->core->intRegfile().setMapping(config_.base.dtm.mapping);
        if (!config_.base.dtm.fetchThrottling)
            e->core->setFetchInterval(1);
    }
}

std::uint64_t
hashCmpResult(const CmpResult& r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = hashU64(h, r.cores.size());
    for (const SimResult& c : r.cores)
        h = hashU64(h, experiments::hashSimResult(c));
    h = hashU64(h, r.shared.size());
    for (const BlockTempStats& b : r.shared) {
        h = fnv1a64(b.name.data(), b.name.size(), h);
        h = hashF64(h, b.avg);
        h = hashF64(h, b.max);
    }
    h = hashU64(h, r.migration.migrations);
    h = hashU64(h, r.migration.migrationStallCycles);
    h = hashU64(h, r.migration.bytesMoved);
    h = hashU64(h, r.migration.evaluations);
    for (int t : r.tileOfJob)
        h = hashU64(h, static_cast<std::uint64_t>(t));
    h = hashU64(h, r.cycles);
    return h;
}

std::vector<CmpJobOutcome>
runCmpJobs(const std::vector<CmpJob>& jobs, int threads)
{
    std::vector<CmpJobOutcome> outcomes(jobs.size());
    // Each worker owns outcomes[i] exclusively once it claims i,
    // so no mutex (and no GUARDED_BY) is needed here.
    experiments::parallelFor(jobs.size(), threads, [&](std::size_t i) {
        const CmpJob& job = jobs[i];
        // det:allow(wallSeconds metric only; never feeds simulation state)
        const auto start = std::chrono::steady_clock::now();
        CmpSimulator sim(job.config);
        CmpJobOutcome& out = outcomes[i];
        out.tag = job.tag;
        out.result = sim.run(job.cycles);
        out.hash = hashCmpResult(out.result);
        const auto end = std::chrono::steady_clock::now(); // det:allow(wallSeconds metric only; never feeds simulation state)
        out.wallSeconds =
            std::chrono::duration<double>(end - start).count();
    });
    return outcomes;
}

} // namespace tempest
