#include "bench/scenario.h"

namespace nova::bench {

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
  if (config.stack == StackKind::kDirect) {
    vc.disable_intercepts = true;
    vc.direct_interrupts = true;
  }
  if (config.stack == StackKind::kMonolithic) {
    vc.full_state_transfer = true;
    baseline::ApplyMonolithicVmmCosts(vc);
  }
  vm_ = std::make_unique<vmm::Vmm>(&system_->hv, system_->root.get(), vc);

  const bool direct = config.stack == StackKind::kDirect;
  if (direct) {
    (void)vm_->AssignHostDevice("ahci", 43);
    (void)vm_->AssignHostDevice("timer", 32);
    (void)vm_->GrantGuestPorts(0x20, 2);  // PIC handshake ports.
  } else if (config.workload.disk_every != 0) {
    vm_->ConnectDiskServer(&system_->StartDiskServer());
  }

  mux_.Attach(system_->hv.engine(0));
  vmm::Vmm* vm = vm_.get();
  gk_ = std::make_unique<guest::GuestKernel>(
      &system_->machine.mem(),
      [vm](std::uint64_t gpa) { return vm->GpaToHpa(gpa); }, &mux_,
      guest::GuestKernelConfig{.mem_bytes = kBenchGuestMem,
                               .timer_hz = config.timer_hz});
  gk_->BuildStandardHandlers();

  guest::GuestAhciDriver::Config dc =
      direct
          ? guest::GuestAhciDriver::Config{
                .mmio_base = root::kAhciMmioBase,
                .irq_vector = 43,
                .read_ci =
                    [this]() -> std::uint32_t {
                      std::uint64_t v = 0;
                      (void)system_->machine.bus().MmioRead(
                          root::kAhciMmioBase + hw::ahci::kPxCi, 4, &v);
                      return static_cast<std::uint32_t>(v);
                    }}
          : guest::GuestAhciDriver::Config{
                .mmio_base = vmm::vahci::kMmioBase,
                .irq_vector = vmm::vahci::kVector,
                .read_ci = [vm]() -> std::uint32_t {
                  return static_cast<std::uint32_t>(vm->vahci().MmioRead(
                      vmm::vahci::kMmioBase + hw::ahci::kPxCi, 4));
                }};
  driver_ = std::make_unique<guest::GuestAhciDriver>(gk_.get(), dc);
  workload_ = std::make_unique<guest::CompileWorkload>(
      gk_.get(), config.workload.disk_every != 0 ? driver_.get() : nullptr,
      config.workload);
  const std::uint64_t main = workload_->EmitMain();
  gk_->EmitBoot(main);
  gk_->Install();
  gk_->PrimeState(vm_->gstate());
  (void)vm_->Start(vm_->gstate().rip);
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
  ar.Section("vmm.guest", 1, *vm_);
  ar.Section("guest.kernel", 1, *gk_);
  ar.Section("guest.driver", 1, *driver_);
  ar.Section("guest.workload", 1, *workload_);
}

Status CompileScenario::SaveState(sim::Snapshot& snap) const {
  return snap.Save(*this);
}
Status CompileScenario::LoadState(const sim::Snapshot& snap) {
  return snap.Restore(*this);
}

}  // namespace nova::bench
