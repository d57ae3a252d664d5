// The guest stacks the benches and tests run.
//
// `GuestVm` assembles one virtualized guest on a NovaSystem: the VMM and
// its device wiring, the guest kernel and its AHCI driver. It also holds
// the VMM crash restart. `NativeGuest` assembles the same guest kernel on
// bare metal. `CompileScenario` builds a whole compile-workload node on a
// GuestVm as one restorable object: its mutable state can be
// checkpointed into a `sim::Snapshot` and restored onto a twin built from
// the identical RunConfig. That is the unit the migration driver moves
// between nodes and the snapshot round-trip tests verify digest-exactness
// on.
#ifndef BENCH_SCENARIO_H_
#define BENCH_SCENARIO_H_

#include <memory>

#include "bench/common.h"
#include "src/root/supervisor.h"

namespace nova::bench {

// Guest RAM every benchmark guest receives (the paper machine gives the
// guest 512 MiB; the model scales down, keeping relative behaviour).
constexpr std::uint64_t kBenchGuestMem = 128ull << 20;

// Aborts, naming `call` and the status, unless `s` is kSuccess. A bench
// that went on would measure a guest that never started.
void CheckOk(const char* call, Status s);

// One guest VM, built in this order: the VMM and its disk wiring, a handle
// on the guest-logic table of the vCPU's engine, the guest kernel with its
// standard handlers, and the AHCI driver. The caller emits its program
// through kernel() and passes its entry point to Boot(). Every assembly
// status is checked with CheckOk. The guest kernel gets
// `config.guest_mem_bytes` of RAM.
class GuestVm {
 public:
  // The disk the guest's AHCI driver talks to.
  enum class Disk {
    kNone,              // No driver.
    kServer,            // The VMM's virtual AHCI, backed by the disk server.
    kServerWithErrors,  // kServer, and the driver re-issues failed slots.
    kHostAhci,          // The host AHCI, assigned to the VM.
  };

  GuestVm(root::NovaSystem& system, const vmm::VmmConfig& config, Disk disk,
          std::uint32_t timer_hz = 0);
  GuestVm(const GuestVm&) = delete;
  GuestVm& operator=(const GuestVm&) = delete;

  // Emits the boot code that ends in `main`, installs the image, primes
  // the vCPU's state and starts it.
  void Boot(std::uint64_t main);

  // The VMM crash restart (a `VmmSupervisor` restart callback): rebuilds
  // the VMM over the guest RAM that survived, reconnects the disk server,
  // resumes the vCPU where the supervisor stopped it and aborts the
  // requests the driver had in flight, so it re-issues them. Needs a
  // disk-server attachment.
  void Restart(const root::VmmSupervisor::RecoveryInfo& info);

  // The current VMM; Restart replaces it.
  vmm::Vmm& vmm() { return *vmm_; }
  guest::GuestKernel& kernel() { return *kernel_; }
  // Null for Disk::kNone.
  guest::GuestAhciDriver* driver() { return driver_.get(); }

 private:
  guest::GuestAhciDriver::Config DriverConfig();

  root::NovaSystem& system_;
  const vmm::VmmConfig config_;
  const Disk disk_;
  std::unique_ptr<vmm::Vmm> vmm_;
  guest::GuestLogicMux mux_;
  std::unique_ptr<guest::GuestKernel> kernel_;
  std::unique_ptr<guest::GuestAhciDriver> driver_;
};

// The host NIC's interrupt vector in the guest (root::kNicGsi).
constexpr std::uint8_t kHostNicVector = 42;

// One bare-metal guest (§8's Native), built in this order: a 512 MiB
// machine without an IOMMU, the standard platform with the timer, NIC and
// AHCI GSIs routed to CPU 0, the runner, the guest kernel (kBenchGuestMem,
// identity GPA->HPA) with its standard handlers, and with `host_ahci` the
// host-AHCI driver, which maps the controller's window into the guest page
// table. Used like GuestVm: emit through kernel(), then Boot(main).
class NativeGuest {
 public:
  NativeGuest(const hw::CpuModel* cpu, std::uint32_t timer_hz, bool host_ahci);
  NativeGuest(const NativeGuest&) = delete;
  NativeGuest& operator=(const NativeGuest&) = delete;

  // Emits the boot code that ends in `main`, installs the image and primes
  // the runner's state.
  void Boot(std::uint64_t main);

  hw::Machine& machine() { return machine_; }
  root::Platform& platform() { return platform_; }
  guest::BareMetalRunner& runner() { return runner_; }
  guest::GuestKernel& kernel() { return kernel_; }
  // Null without `host_ahci`.
  guest::GuestAhciDriver* driver() { return driver_.get(); }

 private:
  hw::Machine machine_;
  root::Platform platform_;
  guest::BareMetalRunner runner_;
  guest::GuestKernel kernel_;
  std::unique_ptr<guest::GuestAhciDriver> driver_;
};

class CompileScenario {
 public:
  // Builds the full stack and starts the guest (boot entry primed, vCPU
  // runnable). Identical configs produce identical twins — the snapshot
  // restore convention.
  explicit CompileScenario(const RunConfig& config);

  bool done() const { return workload_->done(); }
  sim::PicoSeconds now() const;
  // Run until the workload finishes or absolute `deadline_ps`.
  void RunUntilDone(sim::PicoSeconds deadline_ps);
  // Advance this node by `dt` of simulated time.
  void RunFor(sim::PicoSeconds dt);

  root::NovaSystem& system() { return *system_; }
  vmm::Vmm& vm() { return guest_->vmm(); }
  guest::GuestKernel& guest_kernel() { return guest_->kernel(); }
  guest::GuestAhciDriver& driver() { return *guest_->driver(); }
  guest::CompileWorkload& workload() { return *workload_; }
  const RunConfig& config() const { return config_; }

  // Node sections (via NovaSystem) plus the scenario layers: the VMM's
  // device models and the host-side guest bookkeeping.
  Status SaveState(sim::Snapshot& snap) const;
  Status LoadState(const sim::Snapshot& snap);
  template <class Ar>
  void Io(Ar& ar);

 private:
  RunConfig config_;
  std::unique_ptr<root::NovaSystem> system_;
  std::unique_ptr<GuestVm> guest_;
  std::unique_ptr<guest::CompileWorkload> workload_;
};

}  // namespace nova::bench

#endif  // BENCH_SCENARIO_H_
