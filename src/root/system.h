// Full-system assembly: machine + microhypervisor + root partition
// manager + standard platform devices, with helpers to start the disk
// server and build VMMs. The shared entry point for examples, benchmarks
// and integration tests.
#ifndef SRC_ROOT_SYSTEM_H_
#define SRC_ROOT_SYSTEM_H_

#include <memory>

#include "src/hv/kernel.h"
#include "src/hw/machine.h"
#include "src/root/platform.h"
#include "src/root/root_pm.h"
#include "src/services/disk_server.h"

namespace nova::root {

struct SystemConfig {
  hw::MachineConfig machine{};
  hv::HvCosts hv_costs{};
};

class NovaSystem {
 public:
  explicit NovaSystem(SystemConfig config = SystemConfig{})
      : machine(config.machine), hv(&machine, config.hv_costs) {
    hv.Boot();
    root = std::make_unique<RootPartitionManager>(&hv);
    platform = SetupStandardPlatform(&machine, root.get());
  }

  // Start the user-level disk server (idempotent).
  services::DiskServer& StartDiskServer(std::uint32_t cpu = 0) {
    if (disk_server == nullptr) {
      disk_server = std::make_unique<services::DiskServer>(&hv, root.get(), cpu);
    }
    return *disk_server;
  }

  // Whole-node checkpoint: hardware, kernel object graph, root policy and
  // the disk server, each in its own named section. Scenario-level state
  // (VMMs, guests) is layered on top by the owner of those objects.
  // Restore targets a twin NovaSystem built from the identical SystemConfig
  // whose scenario construction ran the same sequence (same StartDiskServer
  // and channel-open calls); presence and wiring are verified, not rebuilt.
  Status SaveState(sim::Snapshot& snap) const { return snap.Save(*this); }
  Status LoadState(const sim::Snapshot& snap) { return snap.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(machine);
    ar.Section("hv.kernel", 1, hv);
    ar.Section("hw.ahci", 1, *platform.ahci);
    ar.Section("hw.disk", 1, *platform.disk);
    ar.Section("hw.nic", 1, *platform.nic);
    ar.Section("hw.netlink", 1, *platform.link);
    ar.Section("hw.timer", 1, *platform.timer);
    ar.Section("hw.uart", 1, *platform.uart);
    ar.Section("root.pm", 1, *root);
    ar.Section("root.sys", 1,
               [this](auto& sys) { sys.Verify(disk_server != nullptr); });
    if (disk_server != nullptr) {
      ar.Section("svc.disk", 1, *disk_server);
    }
  }

  hw::Machine machine;
  hv::Hypervisor hv;
  std::unique_ptr<RootPartitionManager> root;
  Platform platform;
  std::unique_ptr<services::DiskServer> disk_server;
};

}  // namespace nova::root

#endif  // SRC_ROOT_SYSTEM_H_
