#include "src/hw/machine.h"

#include <cstdlib>

namespace nova::hw {

MachineConfig ApplyTestCpuOverride(MachineConfig config) {
  const char* env = std::getenv("NOVA_TEST_CPUS");
  if (env == nullptr || config.cpus.size() != 1) {
    return config;
  }
  const long n = std::strtol(env, nullptr, 10);
  if (n > 1 && n <= 64) {
    config.cpus.assign(static_cast<std::size_t>(n), config.cpus[0]);
  }
  return config;
}

Machine::Machine(const MachineConfig& config_in)
    : mem_(config_in.ram_size), iommu_(&mem_, config_in.iommu_present) {
  const MachineConfig config = ApplyTestCpuOverride(config_in);
  irq_.set_tracer(&tracer_);
  std::uint32_t id = 0;
  for (const CpuModel* model : config.cpus) {
    cpus_.push_back(std::make_unique<Cpu>(id++, model));
  }
}

sim::PicoSeconds Machine::MinNowPs() const {
  sim::PicoSeconds min = cpus_[0]->NowPs();
  for (const auto& c : cpus_) {
    if (c->NowPs() < min) {
      min = c->NowPs();
    }
  }
  return min;
}

template <class Ar>
void Machine::Io(Ar& ar) {
  ar.Section("hw.mem", 1, mem_);
  ar.Section("sim.events", 1, events_);
  ar.Section("hw.irq", 1, irq_);
  ar.Section("hw.iommu", 1, iommu_);
  ar.Section("sim.stats", 1, stats_);
  ar.Section("sim.trace", 1, tracer_);
  ar.Section("hw.cpus", 1, [this](auto& cw) {
    // The twin must match the CPU topology.
    cw.Verify(static_cast<std::uint32_t>(cpus_.size()));
    for (auto& c : cpus_) {
      cw.Io(*c);
    }
  });
}

Status Machine::SaveState(sim::Snapshot& snap) const {
  return snap.Save(*this);
}
Status Machine::LoadState(const sim::Snapshot& snap) {
  return snap.Restore(*this);
}

bool Machine::SkipToNextEvent() {
  if (events_.empty()) {
    return false;
  }
  const sim::PicoSeconds deadline = events_.NextDeadline();
  if (!events_.RunOne()) {
    return false;
  }
  for (auto& c : cpus_) {
    c->AdvanceToPs(deadline);
  }
  return true;
}

}  // namespace nova::hw
