// Run a fully virtualized guest operating system.
//
// Builds the complete NOVA stack — microhypervisor, root partition
// manager, user-level disk server, one user-level VMM — and boots a
// synthetic guest OS in a VM: virtual BIOS services, virtual serial
// console, virtual timer with interrupt injection, and disk I/O through
// the virtual AHCI controller and the disk server (Figure 4's full path).
#include <cstdio>

#include "src/guest/driver_ahci.h"
#include "src/guest/kernel.h"
#include "src/root/system.h"
#include "src/vmm/vmm.h"

using namespace nova;

int main() {
  root::NovaSystem system;
  auto& disk_server = system.StartDiskServer();

  // Some "files" on the host disk.
  const char motd[] = "Welcome to the NOVA guest!";
  system.platform.disk->WriteContent(200 * hw::kSectorSize, motd, sizeof(motd));

  vmm::VmmConfig config;
  config.name = "demo";
  config.guest_mem_bytes = 64ull << 20;
  vmm::Vmm vm(&system.hv, system.root.get(), config);
  vm.ConnectDiskServer(&disk_server);
  vm.SetBootDisk(system.platform.disk.get());

  guest::GuestLogicMux mux;
  mux.Attach(system.hv.engine(0));
  guest::GuestKernel gk(
      &system.machine.mem(),
      [&vm](std::uint64_t gpa) { return vm.GpaToHpa(gpa); }, &mux,
      guest::GuestKernelConfig{.mem_bytes = 64ull << 20, .timer_hz = 100});
  gk.BuildStandardHandlers();

  // Guest disk driver against the virtual AHCI controller.
  guest::GuestAhciDriver driver(
      &gk, guest::GuestAhciDriver::Config{
               .mmio_base = vmm::vahci::kMmioBase,
               .irq_vector = vmm::vahci::kVector,
               .read_ci = [&vm]() -> std::uint32_t {
                 return static_cast<std::uint32_t>(vm.vahci().MmioRead(
                     vmm::vahci::kMmioBase + hw::ahci::kPxCi, 4));
               }});

  // Guest program: print via the virtual serial port, read the message of
  // the day from disk through the driver, then idle.
  bool disk_done = false;
  driver.EmitIsr([&](int) { disk_done = true; });
  const std::uint32_t print_motd = gk.mux().Register([&](hw::GuestState&) {
    char buf[64] = {};
    vm.ReadGuest(guest::GuestLayout::kDmaBase, buf, sizeof(buf) - 1);
    std::printf("guest read from virtual disk: \"%s\"\n", buf);
  });

  hw::isa::Assembler& as = gk.text();
  const std::uint64_t main_gva = as.Here();
  driver.EmitInit();
  for (const char c : std::string("guest console: hello!\n")) {
    as.MovImm(1, static_cast<std::uint64_t>(c));
    as.Out(vmm::vuart::kData, 1);
  }
  // Read one sector (the MOTD) at LBA 200 into the DMA buffer.
  as.MovImm(1, 200);
  as.MovImm(2, 1);
  as.MovImm(3, guest::GuestLayout::kDmaBase);
  driver.EmitIssueSequence();
  as.GuestLogic(gk.mux().Register([&](hw::GuestState& gs) {
    gs.regs[0] = disk_done ? 1 : 0;  // Poll flag for the wait loop.
  }));
  const std::uint64_t wait = as.Here() - hw::isa::kInsnSize;
  as.Jnz(0, as.Here() + 2 * hw::isa::kInsnSize);
  as.Jmp(wait);
  as.GuestLogic(print_motd);
  gk.EmitIdleLoop();

  gk.EmitBoot(main_gva);
  gk.Install();
  gk.PrimeState(vm.gstate());
  (void)vm.Start(vm.gstate().rip);

  // Let the machine run for 100 simulated milliseconds.
  system.hv.RunUntil(sim::Milliseconds(100));

  std::printf("guest console output: %s", vm.vuart().output().c_str());
  std::printf("timer ticks injected into the guest: %llu\n",
              (unsigned long long)gk.ticks());
  std::printf("VM exits handled by the user-level VMM: %llu\n",
              (unsigned long long)vm.exits_handled());
  std::printf("disk server: %llu requests issued, %llu completed\n",
              (unsigned long long)disk_server.requests_issued(),
              (unsigned long long)disk_server.requests_completed());
  std::printf("event counts: PIO=%llu MMIO=%llu HLT=%llu Recall=%llu\n",
              (unsigned long long)system.hv.EventCount("Port I/O"),
              (unsigned long long)system.hv.EventCount("Memory-Mapped I/O"),
              (unsigned long long)system.hv.EventCount("HLT"),
              (unsigned long long)system.hv.EventCount("Recall"));
  return 0;
}
