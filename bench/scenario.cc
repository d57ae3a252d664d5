#include "bench/scenario.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace nova::bench {
namespace {

// The platform timer's and the host AHCI's interrupt vectors in the guest
// (root::kTimerGsi, root::kAhciGsi).
constexpr std::uint8_t kTimerVector = 32;
constexpr std::uint8_t kHostAhciVector = 43;

// The guest's driver of the host AHCI, at the controller's own window:
// identity-mapped on bare metal, assigned to a direct VM.
guest::GuestAhciDriver::Config HostAhciDriverConfig(hw::Machine& machine) {
  return {.mmio_base = root::kAhciMmioBase,
          .irq_vector = kHostAhciVector,
          .read_ci = [&machine]() -> std::uint32_t {
            std::uint64_t v = 0;
            (void)machine.bus().MmioRead(root::kAhciMmioBase + hw::ahci::kPxCi,
                                         4, &v);
            return static_cast<std::uint32_t>(v);
          }};
}

}  // namespace

void CheckOk(const char* call, Status s) {
  if (!Ok(s)) {
    std::fprintf(stderr, "%s failed: %s\n", call, StatusName(s));
    std::abort();
  }
}

GuestVm::GuestVm(root::NovaSystem& system, const vmm::VmmConfig& config,
                 Disk disk, std::uint32_t timer_hz)
    : system_(system), config_(config), disk_(disk) {
  vmm_ = std::make_unique<vmm::Vmm>(&system.hv, system.root.get(), config);
  CheckOk("vmm::Vmm construction", vmm_->create_status());
  if (disk == Disk::kHostAhci) {
    CheckOk("Vmm::AssignHostDevice(ahci)",
            vmm_->AssignHostDevice("ahci", kHostAhciVector));
  } else if (disk != Disk::kNone) {
    vmm_->ConnectDiskServer(&system.StartDiskServer());
  }
  mux_.Attach(system.hv.engine(config.first_cpu));
  kernel_ = std::make_unique<guest::GuestKernel>(
      &system.machine.mem(),
      [this](std::uint64_t gpa) { return vmm_->GpaToHpa(gpa); }, &mux_,
      guest::GuestKernelConfig{.mem_bytes = config.guest_mem_bytes,
                               .timer_hz = timer_hz});
  kernel_->BuildStandardHandlers();
  if (disk != Disk::kNone) {
    driver_ = std::make_unique<guest::GuestAhciDriver>(kernel_.get(),
                                                       DriverConfig());
  }
}

guest::GuestAhciDriver::Config GuestVm::DriverConfig() {
  if (disk_ == Disk::kHostAhci) {
    return HostAhciDriverConfig(system_.machine);
  }
  // Registers are read through vmm_, so they follow a restarted VMM.
  const auto vahci_reg = [this](std::uint64_t reg) {
    return [this, reg]() -> std::uint32_t {
      return static_cast<std::uint32_t>(
          vmm_->vahci().MmioRead(vmm::vahci::kMmioBase + reg, 4));
    };
  };
  return {.mmio_base = vmm::vahci::kMmioBase,
          .irq_vector = vmm::vahci::kVector,
          .read_ci = vahci_reg(hw::ahci::kPxCi),
          .handle_errors = disk_ == Disk::kServerWithErrors,
          .read_err = vahci_reg(hw::ahci::kPxVs)};
}

void GuestVm::Boot(std::uint64_t main) {
  kernel_->EmitBoot(main);
  kernel_->Install();
  kernel_->PrimeState(vmm_->gstate());
  CheckOk("Vmm::Start", vmm_->Start(vmm_->gstate().rip));
}

void GuestVm::Restart(const root::VmmSupervisor::RecoveryInfo& info) {
  // The dead VMM's disk channel is retired first so the replacement
  // recycles its ring frame.
  services::DiskServer& server = system_.StartDiskServer();
  server.CloseChannel(vmm_->disk_channel_id());
  vmm_.reset();
  vmm::VmmConfig config = config_;
  config.fixed_guest_base_page = info.guest_base_page;
  vmm_ = std::make_unique<vmm::Vmm>(&system_.hv, system_.root.get(), config);
  CheckOk("vmm::Vmm construction", vmm_->create_status());
  vmm_->ConnectDiskServer(&server);
  CheckOk("Vmm::Start", vmm_->Start(info.gstate.rip));
  vmm_->gstate() = info.gstate;
  vmm_->vahci().RestoreRegs(info.vahci_regs);
  // The driver still counts its in-flight slots as issued; surface them as
  // errors so its retry path re-submits them to the new model.
  vmm_->vahci().InjectAbort(driver_->issued_mask());
}

NativeGuest::NativeGuest(const hw::CpuModel* cpu, std::uint32_t timer_hz,
                         bool host_ahci)
    : machine_(hw::MachineConfig{.cpus = {cpu},
                                 .ram_size = 512ull << 20,
                                 .iommu_present = false}),
      platform_(root::SetupStandardPlatform(&machine_, nullptr)),
      runner_(&machine_),
      kernel_(
          &machine_.mem(), [](std::uint64_t gpa) { return gpa; },
          &runner_.mux(),
          guest::GuestKernelConfig{.mem_bytes = kBenchGuestMem,
                                   .timer_hz = timer_hz}) {
  for (const auto& [gsi, vector] :
       {std::pair{root::kTimerGsi, kTimerVector},
        std::pair{root::kNicGsi, kHostNicVector},
        std::pair{root::kAhciGsi, kHostAhciVector}}) {
    machine_.irq().Configure(gsi, 0, vector);
    machine_.irq().Unmask(gsi);
  }
  kernel_.BuildStandardHandlers();
  if (host_ahci) {
    driver_ = std::make_unique<guest::GuestAhciDriver>(
        &kernel_, HostAhciDriverConfig(machine_));
  }
}

void NativeGuest::Boot(std::uint64_t main) {
  kernel_.EmitBoot(main);
  kernel_.Install();
  kernel_.PrimeState(runner_.gs());
}

CompileScenario::CompileScenario(const RunConfig& config) : config_(config) {
  // This sequence is shared with RunCompile's virtualized path: any change
  // here changes construction order for every golden-trace digest.
  root::SystemConfig sc;
  sc.machine =
      hw::MachineConfig{.cpus = {config.cpu}, .ram_size = 512ull << 20};
  sc.hv_costs = config.stack == StackKind::kMonolithic
                    ? baseline::MonolithicCosts()
                    : baseline::NovaCosts();
  system_ = std::make_unique<root::NovaSystem>(sc);
  system_->hv.set_vtlb_policy(config.vtlb);

  vmm::VmmConfig vc;
  vc.guest_mem_bytes = kBenchGuestMem;
  vc.large_pages = config.large_pages;
  vc.mode = config.mode;
  const bool direct = config.stack == StackKind::kDirect;
  vc.direct = direct;
  if (config.stack == StackKind::kMonolithic) {
    vc.full_state_transfer = true;
    baseline::ApplyMonolithicVmmCosts(vc);
  }
  // The driver exists even when the workload reads no disk: its section
  // is part of every snapshot.
  guest_ = std::make_unique<GuestVm>(
      *system_, vc, direct ? GuestVm::Disk::kHostAhci : GuestVm::Disk::kServer,
      config.timer_hz);
  if (direct) {
    CheckOk("Vmm::AssignHostDevice(timer)", vm().AssignHostDevice("timer", kTimerVector));
    CheckOk("Vmm::GrantGuestPorts(PIC)", vm().GrantGuestPorts(0x20, 2));
  }
  workload_ = std::make_unique<guest::CompileWorkload>(
      &guest_kernel(), config.workload.disk_every != 0 ? &driver() : nullptr,
      config.workload);
  guest_->Boot(workload_->EmitMain());
}

sim::PicoSeconds CompileScenario::now() const {
  return system_->machine.cpu(0).NowPs();
}

void CompileScenario::RunUntilDone(sim::PicoSeconds deadline_ps) {
  guest::CompileWorkload* w = workload_.get();
  system_->hv.RunUntilCondition([w] { return w->done(); }, deadline_ps);
}

void CompileScenario::RunFor(sim::PicoSeconds dt) {
  system_->hv.RunUntil(now() + dt);
}

template <class Ar>
void CompileScenario::Io(Ar& ar) {
  ar.Io(*system_);
  ar.Section("vmm.guest", 2, vm());
  ar.Section("guest.kernel", 1, guest_kernel());
  ar.Section("guest.driver", 1, driver());
  ar.Section("guest.workload", 1, *workload_);
}

Status CompileScenario::SaveState(sim::Snapshot& snap) const {
  return snap.Save(*this);
}
Status CompileScenario::LoadState(const sim::Snapshot& snap) {
  return snap.Restore(*this);
}

}  // namespace nova::bench
