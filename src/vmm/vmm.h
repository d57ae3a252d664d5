// The user-level virtual-machine monitor (§7).
//
// One VMM instance per virtual machine, running as an ordinary untrusted
// protection domain on top of the microhypervisor. It creates the VM's
// protection domain and virtual CPUs, installs a VM-exit portal per event
// type with a tailored message transfer descriptor, emulates sensitive
// instructions and virtual devices, forwards disk requests to the
// user-level disk server, and injects virtual interrupts — recalling
// running virtual CPUs so injection is timely (§7.5).
#ifndef SRC_VMM_VMM_H_
#define SRC_VMM_VMM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/hv/kernel.h"
#include "src/hw/disk.h"
#include "src/hw/isa.h"
#include "src/sim/fault.h"
#include "src/root/root_pm.h"
#include "src/services/disk_server.h"
#include "src/vmm/emulator.h"
#include "src/vmm/vahci.h"
#include "src/vmm/vpic.h"
#include "src/vmm/vpit.h"
#include "src/vmm/vuart.h"

namespace nova::vmm {

struct VmmConfig {
  std::string name = "vm";
  std::uint64_t guest_mem_bytes = 64ull << 20;
  bool large_pages = true;  // Superpage host mappings (§8.1).
  hw::TranslationMode mode = hw::TranslationMode::kNested;
  // Zero-exit "Direct" configuration of §8.1: intercepts disabled and
  // interrupts delivered straight into the guest.
  bool disable_intercepts = false;
  bool direct_interrupts = false;
  std::uint32_t num_vcpus = 1;
  std::uint32_t first_cpu = 0;  // vCPU i runs on physical CPU first_cpu+i.
  // Transfer the full architectural state on every exit instead of the
  // per-event minimal set — what a monolithic hypervisor without portal
  // transfer descriptors does (baseline profiles).
  bool full_state_transfer = false;
  std::uint8_t prio = 1;
  sim::Cycles quantum = 10'000'000;

  // Kernel-memory quota for the VMM's protection domain (frames, donated
  // from the root's account). The VM's domain is a pass-through child, so
  // everything the kernel allocates on this VM's behalf — shadow page
  // tables, UTCB/VMCS frames, capability-space chunks — charges against
  // this bound. Unlimited by default.
  std::uint64_t kmem_quota_frames = hv::KmemQuota::kUnlimited;

  // Restart path: back the guest with this exact (already-allocated) frame
  // range instead of allocating fresh RAM. Guest memory survives a VMM
  // crash — only the monitor is rebuilt around it.
  std::uint64_t fixed_guest_base_page = 0;

  // VMM-side emulation costs (the ~59% share of exit handling, §8.5).
  sim::Cycles pio_dispatch = 360;
  sim::Cycles mmio_dispatch = 900;
  sim::Cycles device_update = 900;
  sim::Cycles cpuid_emulate = 270;
  sim::Cycles hlt_handle = 240;
  sim::Cycles inject_decide = 180;
};

class Vmm {
 public:
  Vmm(hv::Hypervisor* hv, root::RootPartitionManager* root, VmmConfig config);

  // --- Guest memory -----------------------------------------------------
  std::uint64_t guest_mem_bytes() const { return config_.guest_mem_bytes; }
  // Host frame backing a guest-physical address; hw::kNoHpa outside guest
  // RAM.
  std::uint64_t GpaToHpa(std::uint64_t gpa) const;
  bool ReadGuest(std::uint64_t gpa, void* out, std::uint64_t len) const;
  bool WriteGuest(std::uint64_t gpa, const void* data, std::uint64_t len);

  // Place a guest program image (what the virtual BIOS's multiboot loader
  // does at the end of firmware boot, §7.4).
  void InstallImage(const hw::isa::Assembler& as, std::uint64_t gpa_base = ~0ull);

  // --- Backends ---------------------------------------------------------
  // Wire the virtual disk controller to the user-level disk server.
  void ConnectDiskServer(services::DiskServer* server);
  // Disk content for virtual-BIOS boot services (firmware-time reads go
  // through the VMM-integrated BIOS rather than the virtual controller).
  void SetBootDisk(hw::DiskModel* disk) { boot_disk_ = disk; }

  // Direct device assignment: map a host device's MMIO window into the
  // guest at `gpa_page` (or identity) and route its interrupt onto the
  // virtual interrupt controller as `vector`.
  Status AssignHostDevice(const std::string& name, std::uint8_t vector,
                          std::uint64_t gpa_page = ~0ull);

  // Push the VM's pd capability up to the root (cached); lets the root
  // broker further grants to the VM. Returns the selector in root's space.
  hv::CapSel ExposeVmToRoot();
  // Grant the guest direct access to a host I/O port range (root-brokered).
  Status GrantGuestPorts(std::uint16_t base, std::uint8_t order);

  // --- Control ----------------------------------------------------------
  // Start virtual CPU `i` at `entry` (creates its scheduling context).
  Status Start(std::uint64_t entry_rip, std::uint32_t vcpu = 0);

  // First hypercall failure observed while building the VM, or kSuccess. A VMM
  // whose construction ran out of kernel memory reports kNoMem here rather
  // than limping along with half a VM.
  Status create_status() const { return create_status_; }

  hw::GuestState& gstate(std::uint32_t vcpu = 0) { return vcpus_[vcpu]->gstate(); }
  hv::Ec* vcpu_ec(std::uint32_t vcpu = 0) { return vcpus_[vcpu]; }
  hv::Pd* vm_pd() { return vm_pd_; }
  hv::Pd* vmm_pd() { return vmm_pd_; }
  hv::CapSel vmm_pd_sel() const { return vmm_pd_sel_; }
  std::uint64_t guest_base_page() const { return guest_base_page_; }
  std::uint32_t disk_channel_id() const { return disk_channel_id_; }

  // --- Fault injection / crash recovery ----------------------------------
  // Arm the VMM against an external fault plan: a kVmmCrash fault scheduled
  // for this VMM's name makes the monitor stop handling exits, mimicking a
  // wild crash in the user-level VMM (§4.2's failure model: the VMM is
  // untrusted and its death must not take the system down).
  void SetFaultPlan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  // Simulate the VMM process dying: exit handling stops (vCPUs park on
  // their next exit) and the heartbeat ceases, so a supervisor detects it.
  void Crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  // Periodically write an incrementing counter to `hb_addr` (a host
  // physical address owned by the supervisor). Stops when the VMM crashes;
  // a stale counter is the supervisor's death signal.
  void StartHeartbeat(sim::PicoSeconds period_ps, hw::PhysAddr hb_addr);

  // --- Snapshot ----------------------------------------------------------
  // Mutable VMM-process state: exit/injection counters, the disk channel's
  // ring cursor and delegation cache, heartbeat state, and the four device
  // models. Everything wired at construction (domains, portals, selectors)
  // is rebuilt by the twin and verified, not restored.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

  // --- Device models ----------------------------------------------------
  VPic& vpic() { return *vpic_; }
  VPit& vpit() { return *vpit_; }
  VUart& vuart() { return *vuart_; }
  VAhci& vahci() { return *vahci_; }
  InsnEmulator& emulator() { return *emulator_; }

  std::uint64_t exits_handled() const { return exits_handled_; }
  std::uint64_t interrupts_injected() const { return injected_; }

 private:
  void CreateVm();
  // Latch the first hypercall failure during VM construction.
  bool NoteStatus(Status s) {
    if (Ok(create_status_) && !Ok(s)) {
      create_status_ = s;
    }
    return Ok(s);
  }
  void HandleExit(std::uint32_t vcpu, hv::Event event);

  // Exit handlers (operate on the handler EC's UTCB arch area).
  void OnPio(hv::ArchState& arch);
  void OnCpuid(hv::ArchState& arch);
  void OnHlt(hv::ArchState& arch);
  void OnMmio(hv::ArchState& arch);
  void OnIntrWindow(hv::ArchState& arch);
  void OnRecall(hv::ArchState& arch);
  void OnVmcall(hv::ArchState& arch);
  void OnError(hv::ArchState& arch);

  // Interrupt plumbing.
  void TryDeliver(hv::ArchState& arch);
  void KickVcpus();

  // Heartbeat event machinery (tagged "vmm.<name>.hb" for snapshots).
  std::uint64_t HbOwner() const;
  void HeartbeatTick();

  // Disk backend.
  Status IssueDisk(bool write, std::uint64_t lba, std::uint64_t sectors,
                   std::uint64_t buffer_gpa, std::uint64_t cookie);
  void OnDiskCompletion();

  DeviceModel* RouteGpa(std::uint64_t gpa);
  DeviceModel* RoutePort(std::uint16_t port);
  hw::Cpu& cpu() { return hv_->machine().cpu(config_.first_cpu); }

  hv::Hypervisor* hv_;
  root::RootPartitionManager* root_;
  VmmConfig config_;

  hv::Pd* vmm_pd_ = nullptr;
  hv::CapSel vmm_pd_sel_ = hv::kInvalidSel;  // In the root's space.
  hv::CapSel root_handle_sel_ = hv::kInvalidSel;  // Parent channel.
  hv::CapSel vm_sel_in_root_ = hv::kInvalidSel;   // Cached push-up.
  hv::Pd* vm_pd_ = nullptr;
  hv::CapSel vm_pd_sel_ = hv::kInvalidSel;   // In the VMM's space.
  std::uint64_t guest_base_page_ = 0;

  std::vector<hv::Ec*> vcpus_;
  std::vector<hv::CapSel> vcpu_sels_;        // In the VMM's space.
  std::vector<hv::Ec*> handler_ecs_;
  std::deque<bool> in_exit_;

  std::unique_ptr<VPic> vpic_;
  std::unique_ptr<VPit> vpit_;
  std::unique_ptr<VUart> vuart_;
  std::unique_ptr<VAhci> vahci_;
  std::unique_ptr<InsnEmulator> emulator_;
  std::vector<DeviceModel*> models_;

  // Disk server channel.
  services::DiskServer* disk_server_ = nullptr;
  hv::CapSel disk_portal_ = hv::kInvalidSel;  // Request portal (VMM space).
  std::uint64_t disk_shared_page_ = 0;
  std::uint32_t disk_channel_id_ = 0;
  std::uint32_t disk_ring_tail_ = 0;
  std::set<std::uint64_t> delegated_buffer_pages_;

  hv::Ec* comp_ec_ = nullptr;       // Disk-completion handler EC.
  std::vector<hv::Ec*> irq_ecs_storage_;  // Interrupt threads (direct devices).
  std::uint32_t cur_vcpu_ = 0;      // vCPU whose exit is being handled.

  hw::DiskModel* boot_disk_ = nullptr;
  std::uint64_t exits_handled_ = 0;
  std::uint64_t injected_ = 0;

  Status create_status_ = Status::kSuccess;
  sim::FaultPlan* fault_plan_ = nullptr;
  bool crashed_ = false;
  std::uint64_t hb_count_ = 0;
  bool hb_running_ = false;
  sim::PicoSeconds hb_period_ps_ = 0;
  hw::PhysAddr hb_addr_ = 0;
  sim::EventQueue::EventId hb_event_ = 0;  // Pending beat; 0 once stopped.
  sim::EventOwner hb_owner_;  // Last member: unregisters first.
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VMM_H_
