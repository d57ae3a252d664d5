// VMM crash supervision (failure isolation, §4.2).
//
// The VMM is an untrusted user-level component: its crash must affect only
// the virtual machine it monitors. The root partition manager plays parent
// here — it watches each VMM via a heartbeat word the VMM periodically
// increments in root-owned memory. When the heartbeat goes stale the
// supervisor checkpoints the guest's architectural state and the virtual
// controller registers (guest RAM itself survives — it stays allocated and
// simply falls back to the root when the dead domains are destroyed),
// revokes and destroys the VM and VMM protection domains through the
// ordinary hypercall interface, and invokes a restart callback that
// rebuilds a fresh VMM over the surviving guest memory and resumes the
// guest where it stopped.
//
// Periodic checkpointing (checkpoint_every_checks != 0) hardens the warm
// path: every N healthy check ticks the supervisor snapshots each watched
// VMM's recovery state while the monitor is known-good. At recovery time
// the *device-model* registers come from the last healthy checkpoint — a
// wildly crashed VMM's in-process state is untrusted — while the guest's
// architectural state is read from the kernel's vCPU object, which lives
// in the TCB and survives the crash intact. Requests in flight past the
// checkpoint are replayed through the virtual controller's abort path.
#ifndef SRC_ROOT_SUPERVISOR_H_
#define SRC_ROOT_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/root/root_pm.h"
#include "src/vmm/vmm.h"

namespace nova::root {

class VmmSupervisor {
 public:
  struct Config {
    // How often the supervisor samples the heartbeat words. The VMM beats
    // at twice this rate, so one missed sample is already suspicious.
    sim::PicoSeconds check_period_ps = 2'000'000'000;  // 2 ms.
    // Checkpoint each healthy VMM's recovery state every N check ticks
    // (0 disables; recovery then reads the dead VMM's device model as a
    // best effort, the pre-checkpointing behaviour).
    std::uint32_t checkpoint_every_checks = 0;
  };

  // Everything the restart path needs that does not survive in guest RAM:
  // the guest's architectural state (the vCPU object dies with the VM
  // domain) and the guest-programmed virtual-controller registers (the
  // device model dies with the VMM process).
  struct RecoveryInfo {
    hw::GuestState gstate;
    std::uint64_t guest_base_page = 0;
    vmm::VAhci::Regs vahci_regs;
    // True when vahci_regs came from a healthy-time checkpoint rather than
    // the crashed monitor's memory.
    bool regs_from_checkpoint = false;
  };
  using RestartFn = std::function<void(const RecoveryInfo&)>;

  VmmSupervisor(hv::Hypervisor* hv, RootPartitionManager* root, Config config);
  VmmSupervisor(hv::Hypervisor* hv, RootPartitionManager* root)
      : VmmSupervisor(hv, root, Config()) {}
  VmmSupervisor(const VmmSupervisor&) = delete;
  VmmSupervisor& operator=(const VmmSupervisor&) = delete;

  // Consecutive stale samples before a VMM is declared dead.
  static constexpr std::uint32_t kStaleChecks = 2;

  // Start watching `vmm`: allocates its heartbeat word, starts the VMM's
  // heartbeat, and records the selectors needed for teardown. On detected
  // death the supervisor destroys the VM and VMM domains and calls
  // `on_restart` with the saved state. A watch takes over the entry and
  // heartbeat word of a VMM already recovered (the replacement re-watched
  // from `on_restart`, say); otherwise it takes a fresh word, a full
  // heartbeat page is followed by a new one from the root, and kNoMem
  // means the root had none left (nothing is watched then).
  [[nodiscard]] Status Watch(vmm::Vmm* vmm, RestartFn on_restart);

  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t checkpoints() const { return checkpoints_; }
  sim::PicoSeconds last_detect_latency_ps() const { return last_detect_latency_ps_; }

 private:
  struct Watched {
    vmm::Vmm* vmm = nullptr;
    hw::PhysAddr hb_addr = 0;
    std::uint64_t last_seen = 0;
    std::uint32_t stale = 0;
    hv::CapSel vm_sel = hv::kInvalidSel;   // In the root's space.
    hv::CapSel vmm_sel = hv::kInvalidSel;  // In the root's space.
    RestartFn on_restart;
    bool recovered = false;
    // Last healthy-time checkpoint (checkpoint_every_checks != 0 only).
    bool has_checkpoint = false;
    vmm::VAhci::Regs ckpt_regs;
  };

  void CheckTick();  // Tagged "root.supervisor" op 1.
  void CheckAll();
  void CheckpointAll();
  void Recover(Watched& w);

  hv::Hypervisor* hv_;
  RootPartitionManager* root_;
  Config config_;
  std::uint64_t hb_page_ = 0;  // Root-owned page of the newest heartbeat words.
  std::vector<Watched> watched_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t ticks_ = 0;
  sim::PicoSeconds last_detect_latency_ps_ = 0;
  bool check_running_ = false;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::root

#endif  // SRC_ROOT_SUPERVISOR_H_
