// End-to-end integration: a full NOVA stack (microhypervisor, root
// partition manager, disk server, VMM) hosting a synthetic guest OS.
#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"

namespace nova {
namespace {

using bench::GuestVm;

class VmBootTest : public ::testing::Test {
 protected:
  VmBootTest() : system_(root::SystemConfig{
                     .machine = {.cpus = {&hw::CoreI7_920()},
                                 .ram_size = 512ull << 20}}) {}

  void MakeVm(vmm::VmmConfig config = {},
              GuestVm::Disk disk = GuestVm::Disk::kNone) {
    guest_ = std::make_unique<GuestVm>(system_, config, disk, timer_hz_);
  }

  void BootAndRun(std::uint64_t main_gva, sim::PicoSeconds deadline,
                  const std::function<bool()>& pred) {
    guest_->Boot(main_gva);
    system_.hv.RunUntilCondition(pred, deadline);
  }

  vmm::Vmm& vm() { return guest_->vmm(); }
  guest::GuestKernel& gk() { return guest_->kernel(); }

  root::NovaSystem system_;
  std::unique_ptr<GuestVm> guest_;
  std::uint32_t timer_hz_ = 0;
};

TEST_F(VmBootTest, GuestPrintsToVirtualSerial) {
  MakeVm();
  hw::isa::Assembler& as = gk().text();
  const std::uint64_t main = as.Here();
  for (const char c : std::string("hello from the guest")) {
    as.MovImm(1, static_cast<std::uint64_t>(c));
    as.Out(vmm::vuart::kData, 1);
  }
  gk().EmitIdleLoop();

  BootAndRun(main, sim::Milliseconds(100),
             [this] { return vm().vuart().output().size() >= 20; });
  EXPECT_EQ(vm().vuart().output(), "hello from the guest");
  // Every character was a port-I/O exit handled by the VMM.
  EXPECT_GE(system_.hv.EventCount("Port I/O"), 20u);
}

TEST_F(VmBootTest, BiosServicesViaVmcall) {
  MakeVm();
  vm().SetBootDisk(system_.platform.disk.get());
  const char boot_data[] = "bootloader payload!";
  system_.platform.disk->WriteContent(100 * hw::kSectorSize, boot_data,
                                      sizeof(boot_data));

  hw::isa::Assembler& as = gk().text();
  const std::uint64_t main = as.Here();
  // BIOS putchar.
  as.MovImm(1, 'B');
  as.Emit({.opcode = hw::isa::Opcode::kVmcall, .imm32 = 1});
  // BIOS disk read: one sector from LBA 100 into GPA 0x600000.
  as.MovImm(1, 100);
  as.MovImm(2, 1);
  as.MovImm(3, 0x600000);
  as.Emit({.opcode = hw::isa::Opcode::kVmcall, .imm32 = 2});
  // BIOS memory size into r1.
  as.Emit({.opcode = hw::isa::Opcode::kVmcall, .imm32 = 3});
  as.StoreAbs(1, 0x601000);
  gk().EmitIdleLoop();

  BootAndRun(main, sim::Milliseconds(100), [this] {
    return system_.machine.mem().Read64(vm().GpaToHpa(0x601000)) != 0;
  });
  EXPECT_EQ(vm().vuart().output(), "B");
  char out[sizeof(boot_data)] = {};
  ASSERT_TRUE(vm().ReadGuest(0x600000, out, sizeof(out)));
  EXPECT_STREQ(out, boot_data);
  EXPECT_EQ(system_.machine.mem().Read64(vm().GpaToHpa(0x601000)),
            vm().guest_mem_bytes());
}

TEST_F(VmBootTest, VirtualTimerTicksAndInjects) {
  timer_hz_ = 1000;
  MakeVm();
  const std::uint64_t main = gk().EmitIdleLoop();

  BootAndRun(main, sim::Milliseconds(50), [this] { return gk().ticks() >= 20; });
  EXPECT_GE(gk().ticks(), 20u);
  EXPECT_GE(vm().vpit().ticks(), 20u);
  EXPECT_GE(vm().interrupts_injected(), 20u);
  // Each tick is serviced with the four-step controller handshake.
  EXPECT_GE(system_.hv.EventCount("Port I/O"), 4 * 20u);
  // The parked (halted) vCPU was recalled for injection (§7.5).
  EXPECT_GE(system_.hv.EventCount("Recall"), 1u);
}

TEST_F(VmBootTest, VirtualizedDiskReadThroughFullStack) {
  auto& server = system_.StartDiskServer();
  MakeVm({}, GuestVm::Disk::kServer);

  const char payload[] = "sector data via the whole stack";
  system_.platform.disk->WriteContent(42 * hw::kSectorSize, payload,
                                      sizeof(payload));

  guest::DiskWorkload workload(&gk(), guest_->driver(),
                               guest::DiskWorkload::Config{
                                   .block_bytes = 4096,
                                   .total_requests = 8,
                               });
  // Make the first request read LBA 42 so we can check the data. The
  // workload reads sequentially from LBA 0; instead just verify pattern
  // consistency below.
  const std::uint64_t main = workload.EmitMain();
  BootAndRun(main, sim::Seconds(2), [&workload] { return workload.done(); });

  EXPECT_TRUE(workload.done());
  EXPECT_EQ(workload.completed(), 8u);
  EXPECT_EQ(vm().vahci().commands_issued(), 8u);
  EXPECT_EQ(vm().vahci().commands_completed(), 8u);
  EXPECT_EQ(server.requests_issued(), 8u);
  EXPECT_EQ(server.requests_completed(), 8u);

  // The host controller DMAed disk content directly into the guest buffer:
  // compare the buffer against the disk model's content for the last block.
  std::uint8_t guest_buf[4096];
  ASSERT_TRUE(vm().ReadGuest(guest::GuestLayout::kDmaBase, guest_buf,
                             sizeof(guest_buf)));
  std::uint8_t disk_buf[4096];
  system_.platform.disk->ReadContent(7 * 4096, disk_buf, sizeof(disk_buf));
  EXPECT_EQ(0, memcmp(guest_buf, disk_buf, sizeof(disk_buf)));

  // Table 2 structure: six MMIO exits per disk operation.
  EXPECT_GE(system_.hv.EventCount("Memory-Mapped I/O"), 6 * 8u);
}

TEST_F(VmBootTest, DirectAssignedDiskBypassesDeviceEmulation) {
  MakeVm({}, GuestVm::Disk::kHostAhci);
  guest::DiskWorkload workload(&gk(), guest_->driver(),
                               guest::DiskWorkload::Config{
                                   .block_bytes = 4096,
                                   .total_requests = 8,
                               });
  const std::uint64_t main = workload.EmitMain();
  BootAndRun(main, sim::Seconds(2), [&workload] { return workload.done(); });

  EXPECT_TRUE(workload.done());
  EXPECT_EQ(workload.completed(), 8u);
  // MMIO went straight to hardware: no device-emulation exits at all.
  EXPECT_EQ(system_.hv.EventCount("Memory-Mapped I/O"), 0u);
  // Interrupt virtualization still happens: the guest halts between issue
  // and completion, so each interrupt reaches the VMM's interrupt thread
  // in host mode and re-enters the guest via recall + injection, followed
  // by the four-step controller handshake.
  EXPECT_GE(system_.hv.EventCount("Recall"), 8u);
  EXPECT_GE(vm().interrupts_injected(), 8u);
  EXPECT_GE(system_.hv.EventCount("Port I/O"), 4 * 8u);
  EXPECT_GE(system_.hv.EventCount("HLT"), 8u);
  // DMA was remapped guest-physical -> host-physical by the IOMMU using
  // the VM's own page table.
  EXPECT_EQ(system_.machine.iommu().faults(), 0u);
  EXPECT_TRUE(system_.machine.iommu().IsAttached(root::kAhciDevId));
}

TEST_F(VmBootTest, CompromisedGuestCannotEscapeItsVm) {
  // Two VMs; the first one scribbles over every guest-physical address it
  // can name. The second VM's memory and the hypervisor stay intact.
  MakeVm();
  auto vm2 = std::make_unique<vmm::Vmm>(&system_.hv, system_.root.get(),
                                        vmm::VmmConfig{.name = "victim"});
  const char canary[] = "victim data";
  vm2->WriteGuest(0x5000, canary, sizeof(canary));

  hw::isa::Assembler& as = gk().text();
  const std::uint64_t main = as.Here();
  // Hostile guest: store to addresses far beyond its RAM.
  as.MovImm(0, 0x6666);
  for (std::uint64_t gpa = 256ull << 20; gpa < (260ull << 20); gpa += (1ull << 20)) {
    as.StoreAbs(0, gpa);
  }
  gk().EmitIdleLoop();

  int mmio_exits_before = static_cast<int>(system_.hv.EventCount("Memory-Mapped I/O"));
  BootAndRun(main, sim::Milliseconds(100), [this] {
    return system_.hv.EventCount("Memory-Mapped I/O") >= 4;
  });
  EXPECT_GT(static_cast<int>(system_.hv.EventCount("Memory-Mapped I/O")),
            mmio_exits_before);
  char out[sizeof(canary)] = {};
  vm2->ReadGuest(0x5000, out, sizeof(out));
  EXPECT_STREQ(out, canary);  // The victim VM is untouched.
}

TEST(GuestVmDeathTest, VmmOutOfKernelMemoryAborts) {
  // A one-frame quota cannot hold the VMM's own domain: construction
  // reports kNoMem, and the builder stops there instead of booting a guest
  // that never starts.
  root::NovaSystem system;
  EXPECT_DEATH(
      {
        GuestVm vm(system, vmm::VmmConfig{.kmem_quota_frames = 1},
                   GuestVm::Disk::kNone);
      },
      "vmm::Vmm construction failed: kNoMem");
}

}  // namespace
}  // namespace nova
