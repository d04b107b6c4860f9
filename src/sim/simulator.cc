#include "sim/simulator.hh"

#include "common/log.hh"
#include "sim/cmp/cmp_simulator.hh"

namespace tempest
{

const BlockTempStats&
SimResult::block(const std::string& name) const
{
    for (const BlockTempStats& b : blocks) {
        if (b.name == name)
            return b;
    }
    fatal("SimResult has no block named '", name, "'");
}

namespace
{

CmpSimConfig
oneCore(const SimConfig& config)
{
    CmpSimConfig cmp;
    cmp.base = config;
    cmp.cores = 1;
    return cmp;
}

} // namespace

Simulator::Simulator(const SimConfig& config,
                     const BenchmarkProfile& profile)
    : engine_(std::make_unique<CmpSimulator>(
          oneCore(config), std::vector<BenchmarkProfile>{profile}))
{}

Simulator::~Simulator() = default;

SimResult
Simulator::run(std::uint64_t max_cycles)
{
    runTo(cycle() + max_cycles);
    return result();
}

void
Simulator::runTo(std::uint64_t end_cycle)
{
    engine_->runTo(end_cycle);
}

SimResult
Simulator::result() const
{
    return std::move(engine_->result().cores.front());
}

std::uint64_t
Simulator::cycle() const
{
    return engine_->cycle();
}

std::string
Simulator::saveCheckpoint() const
{
    return engine_->saveCheckpoint();
}

void
Simulator::restoreCheckpoint(const std::string& bytes)
{
    engine_->restoreCheckpoint(bytes);
}

void
Simulator::resetMeasurement()
{
    engine_->resetMeasurement();
}

RcModel&
Simulator::thermalModel()
{
    return engine_->thermalModel();
}

const Floorplan&
Simulator::floorplan() const
{
    return engine_->floorplan();
}

void
Simulator::setTrace(ThermalTrace* trace)
{
    engine_->setTrace(trace);
}

} // namespace tempest
