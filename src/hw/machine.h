// The simulated host machine: RAM, CPUs, interrupt fabric, IOMMU, system
// bus and the device event queue, assembled from a configuration.
#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/cpu_model.h"
#include "src/hw/device.h"
#include "src/hw/iommu.h"
#include "src/hw/irq.h"
#include "src/hw/phys_mem.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace nova::hw {

struct MachineConfig {
  std::vector<const CpuModel*> cpus = {&CoreI7_920()};
  std::uint64_t ram_size = 1ull << 30;  // 1 GiB default.
  bool iommu_present = true;
};

// CI hook: when the NOVA_TEST_CPUS environment variable is set to N > 1
// and `config` carries a single CPU model (the default in most tests),
// the machine is built with N copies of that model instead. This lets the
// whole tier-1 suite run against an SMP machine without touching each
// test; explicit multi-CPU configurations are never overridden.
MachineConfig ApplyTestCpuOverride(MachineConfig config);

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  PhysMem& mem() { return mem_; }
  sim::EventQueue& events() { return events_; }
  IrqChip& irq() { return irq_; }
  Iommu& iommu() { return iommu_; }
  Bus& bus() { return bus_; }
  // Structured event tracer; disabled by default and shared by every layer
  // riding on this machine (hypervisor, devices, interrupt fabric).
  sim::Tracer& tracer() { return tracer_; }

  std::size_t num_cpus() const { return cpus_.size(); }
  Cpu& cpu(std::uint32_t id) { return *cpus_[id]; }

  // Take ownership of a device model. Returns a borrowed pointer for
  // registering bus windows.
  template <typename T>
  T* AddDevice(std::unique_ptr<T> device) {
    T* raw = device.get();
    devices_.push_back(std::move(device));
    return raw;
  }

  // Earliest local clock across all CPUs. Device time may never advance
  // past this: a core that is behind could still initiate I/O "in the
  // past" of a core that raced ahead.
  sim::PicoSeconds MinNowPs() const;

  // Bring the device clock up to the machine-wide minimum CPU time,
  // firing due events. Conservative under SMP: devices only observe time
  // every core has already reached.
  void SyncDeviceTime() { events_.AdvanceTo(MinNowPs()); }

  // All CPUs idle and nothing to do: hop to the next device event and pull
  // every CPU's local clock forward. Returns false if no event is pending.
  bool SkipToNextEvent();

  // Serialize the machine's own components (RAM, event queue, interrupt
  // fabric, IOMMU, CPUs, tracer) as sections of `snap`. Device
  // models are owned by higher layers with typed pointers and save their
  // own sections. Restore overlays a twin constructed from the identical
  // MachineConfig.
  Status SaveState(sim::Snapshot& snap) const;
  Status LoadState(const sim::Snapshot& snap);
  template <class Ar>
  void Io(Ar& ar);

 private:
  PhysMem mem_;
  // Every sim::EventOwner handle must die before this queue. Members are
  // destroyed in reverse order, so the devices below go first; owners
  // built on top of the machine (Hypervisor, platform devices, services,
  // VMMs, fault plans) must be destroyed before the Machine itself.
  sim::EventQueue events_;
  // Before irq_, which interns its names here when the machine is built.
  sim::Tracer tracer_{&events_};
  IrqChip irq_{tracer_};
  Iommu iommu_;
  Bus bus_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace nova::hw

#endif  // SRC_HW_MACHINE_H_
