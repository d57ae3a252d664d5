// Virtual CPUs: VM-exit dispatch through event portals, MTD-governed state
// transfer, halt/recall, interrupt delivery.
#include <gtest/gtest.h>

#include "src/hw/isa.h"
#include "tests/hv/test_util.h"

namespace nova::hv {
namespace {

class VcpuTest : public HvTest {
 protected:
  static constexpr CapSel kVmPd = 100;
  static constexpr CapSel kVcpuSel = 101;
  static constexpr CapSel kScSel = 102;
  static constexpr CapSel kEvtBase = 200;   // In the VM's cap space.
  static constexpr CapSel kHandlerBase = 300;  // Handler EC selectors (root).
  static constexpr CapSel kPortalBase = 320;

  VcpuTest() {
    EXPECT_EQ(hv_.CreatePd(root_, kVmPd, "vm", true, &vm_), Status::kSuccess);
    // Delegate 32 MiB of guest memory at GPA 0.
    guest_base_page_ = (hv_.kernel_reserve() >> hw::kPageShift);
    EXPECT_EQ(hv_.Delegate(root_, kVmPd,
                           Crd{CrdKind::kMem, guest_base_page_, 13, perm::kRwx}, 0),
              Status::kSuccess);
    EXPECT_EQ(hv_.CreateVcpu(root_, kVcpuSel, kVmPd, 0, kEvtBase, &vcpu_),
              Status::kSuccess);
  }

  // Install a VM-exit portal for `event`, handled by `fn` in the root PD
  // (root plays the VMM here).
  void InstallPortal(Event event, Mtd m, Ec::Handler fn) {
    const auto idx = static_cast<CapSel>(event);
    Ec* handler = nullptr;
    ASSERT_EQ(hv_.CreateEcLocal(root_, kHandlerBase + idx, kSelOwnPd, 0,
                                std::move(fn), &handler),
              Status::kSuccess);
    handlers_[idx] = handler;
    ASSERT_EQ(hv_.CreatePt(root_, kPortalBase + idx, kHandlerBase + idx, m,
                           static_cast<std::uint64_t>(event)),
              Status::kSuccess);
    ASSERT_EQ(hv_.Delegate(root_, kVmPd, Crd::Obj(kPortalBase + idx, 0, perm::kCall),
                           kEvtBase + idx),
              Status::kSuccess);
  }

  hw::PhysAddr GuestHpa(std::uint64_t gpa) {
    return (guest_base_page_ << hw::kPageShift) + gpa;
  }

  void InstallProgram(const hw::isa::Assembler& as) {
    (void)machine_.mem().Write(GuestHpa(as.base()), as.bytes().data(), as.bytes().size());
  }

  void StartVcpu() {
    ASSERT_EQ(hv_.CreateSc(root_, kScSel, kVcpuSel, 1, 30'000'000), Status::kSuccess);
  }

  void RunSteps(int n) {
    for (int i = 0; i < n; ++i) {
      if (!hv_.StepOnce()) {
        break;
      }
    }
  }

  Pd* vm_ = nullptr;
  Ec* vcpu_ = nullptr;
  std::uint64_t guest_base_page_ = 0;
  Ec* handlers_[kNumEvents] = {};
};

TEST_F(VcpuTest, CpuidExitsToVmmWithMinimalState) {
  hw::isa::Assembler as(0x1000);
  as.MovImm(0, 0xdead);
  as.Cpuid();
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  std::uint64_t seen_rax = 0;
  InstallPortal(Event::kCpuid, mtd::kGprAcdb | mtd::kRip, [&](std::uint64_t id) {
    EXPECT_EQ(id, static_cast<std::uint64_t>(Event::kCpuid));
    Utcb& u = handlers_[static_cast<int>(Event::kCpuid)]->utcb();
    seen_rax = u.arch.regs[0];
    u.arch.regs[0] = 0x1234;           // Emulated CPUID result.
    u.arch.rip += u.arch.insn_len;     // Advance past the instruction.
  });
  bool halted_seen = false;
  InstallPortal(Event::kHlt, mtd::kSta | mtd::kRip, [&](std::uint64_t) {
    Utcb& u = handlers_[static_cast<int>(Event::kHlt)]->utcb();
    u.arch.halted = true;  // Park the vCPU.
    halted_seen = true;
  });

  StartVcpu();
  RunSteps(10);
  EXPECT_EQ(seen_rax, 0xdeadu);
  EXPECT_TRUE(halted_seen);
  EXPECT_EQ(vcpu_->gstate().regs[0], 0x1234u);
  EXPECT_EQ(vcpu_->block_state(), Ec::BlockState::kBlockedHalt);
  EXPECT_EQ(hv_.EventCount("CPUID"), 1u);
  EXPECT_EQ(hv_.EventCount("HLT"), 1u);
}

TEST_F(VcpuTest, PioExitCarriesQualification) {
  hw::isa::Assembler as(0x1000);
  as.MovImm(3, 0x42);
  as.Out(0x70, 3);
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  std::uint16_t port = 0;
  std::uint64_t value = 0;
  bool is_write = false;
  InstallPortal(Event::kPio, mtd::kGprAcdb | mtd::kRip | mtd::kQual,
                [&](std::uint64_t) {
                  Utcb& u = handlers_[static_cast<int>(Event::kPio)]->utcb();
                  port = static_cast<std::uint16_t>(u.arch.qual & 0xffff);
                  is_write = (u.arch.qual >> 24) & 1;
                  value = u.arch.regs[3];
                  u.arch.rip += u.arch.insn_len;
                });
  InstallPortal(Event::kHlt, mtd::kSta, [&](std::uint64_t) {
    handlers_[static_cast<int>(Event::kHlt)]->utcb().arch.halted = true;
  });

  StartVcpu();
  RunSteps(10);
  EXPECT_EQ(port, 0x70);
  EXPECT_TRUE(is_write);
  EXPECT_EQ(value, 0x42u);
  EXPECT_EQ(hv_.EventCount("Port I/O"), 1u);
}

TEST_F(VcpuTest, MmioExitDeliversGpa) {
  hw::isa::Assembler as(0x1000);
  as.MovImm(0, 7);
  as.StoreAbs(0, 0xfee00040);  // Unmapped guest-physical address.
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  std::uint64_t gpa = 0;
  InstallPortal(Event::kMmio, mtd::kGprAcdb | mtd::kRip | mtd::kQual,
                [&](std::uint64_t) {
                  Utcb& u = handlers_[static_cast<int>(Event::kMmio)]->utcb();
                  gpa = u.arch.qual_gpa;
                  u.arch.rip += u.arch.insn_len;  // Emulated elsewhere.
                });
  InstallPortal(Event::kHlt, mtd::kSta, [&](std::uint64_t) {
    handlers_[static_cast<int>(Event::kHlt)]->utcb().arch.halted = true;
  });

  StartVcpu();
  RunSteps(10);
  EXPECT_EQ(gpa, 0xfee00040u);
  EXPECT_EQ(hv_.EventCount("Memory-Mapped I/O"), 1u);
}

TEST_F(VcpuTest, UnhandledEventParksVcpu) {
  hw::isa::Assembler as(0x1000);
  as.Cpuid();  // No portal installed.
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;
  StartVcpu();
  RunSteps(5);
  EXPECT_EQ(hv_.EventCount("vm-event-unhandled"), 1u);
}

TEST_F(VcpuTest, RecallWakesHaltedVcpuAndInjects) {
  hw::isa::Assembler handler_code(0x3000);
  handler_code.MovImm(5, 0xbeef);
  handler_code.StoreAbs(5, 0x5000);  // ISR results go through memory.
  handler_code.Iret();
  InstallProgram(handler_code);

  hw::isa::Assembler as(0x1000);
  as.SetIdt(33, 0x3000);
  as.Sti();
  as.Hlt();
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  InstallPortal(Event::kHlt, mtd::kSta | mtd::kRip, [&](std::uint64_t) {
    handlers_[static_cast<int>(Event::kHlt)]->utcb().arch.halted = true;
  });
  int recalls = 0;
  InstallPortal(Event::kRecall, mtd::kInj | mtd::kSta | mtd::kRflags,
                [&](std::uint64_t) {
                  Utcb& u = handlers_[static_cast<int>(Event::kRecall)]->utcb();
                  ++recalls;
                  u.arch.inject_pending = true;   // Inject vector 33.
                  u.arch.inject_vector = 33;
                  u.arch.halted = false;
                });

  StartVcpu();
  RunSteps(10);
  ASSERT_EQ(vcpu_->block_state(), Ec::BlockState::kBlockedHalt);

  // Device completion path: the VMM recalls the vCPU to inject (§7.5).
  ASSERT_EQ(hv_.Recall(root_, kVcpuSel), Status::kSuccess);
  EXPECT_EQ(vcpu_->block_state(), Ec::BlockState::kRunnable);
  RunSteps(10);
  EXPECT_EQ(recalls, 1);
  EXPECT_EQ(machine_.mem().Read64(GuestHpa(0x5000)), 0xbeefu);
  EXPECT_EQ(hv_.EventCount("Recall"), 1u);
}

TEST_F(VcpuTest, ExternalInterruptExitsAndSignalsSemaphore) {
  constexpr CapSel kSm = 400;
  constexpr std::uint32_t kGsi = 5;
  ASSERT_EQ(hv_.CreateSm(root_, kSm, 0), Status::kSuccess);
  ASSERT_EQ(hv_.AssignGsi(root_, kSm, kGsi, 0), Status::kSuccess);
  machine_.irq().Unmask(kGsi);

  hw::isa::Assembler as(0x1000);
  const std::uint64_t top = as.NopBlock(500);
  as.Jmp(top);
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;
  StartVcpu();

  RunSteps(2);
  machine_.irq().Assert(kGsi);
  RunSteps(3);
  EXPECT_GE(hv_.EventCount("Hardware Interrupts"), 1u);
  // The semaphore collected the interrupt.
  auto sm = root_->caps().LookupAs<Sm>(kSm, ObjType::kSm, 0);
  ASSERT_NE(sm, nullptr);
  EXPECT_EQ(sm->counter(), 1u);
}

TEST_F(VcpuTest, DirectInterruptDeliveryWithoutExit) {
  hw::isa::Assembler handler_code(0x3000);
  handler_code.MovImm(5, 1);
  handler_code.StoreAbs(5, 0x5000);  // ISR results go through memory.
  handler_code.Iret();
  InstallProgram(handler_code);

  hw::isa::Assembler as(0x1000);
  as.SetIdt(32 + 9, 0x3000);
  as.Sti();
  as.Hlt();
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;
  vcpu_->ctl().direct_interrupts = true;
  vcpu_->ctl().intercept_hlt = false;

  ASSERT_EQ(hv_.AssignGsiDirect(root_, kVcpuSel, 9), Status::kSuccess);
  StartVcpu();
  RunSteps(5);
  EXPECT_EQ(vcpu_->block_state(), Ec::BlockState::kBlockedHalt);

  machine_.irq().Assert(9);
  RunSteps(5);
  EXPECT_EQ(machine_.mem().Read64(GuestHpa(0x5000)), 1u);
  // No VM exits were taken for the interrupt.
  EXPECT_EQ(hv_.EventCount("Hardware Interrupts"), 0u);
}

TEST_F(VcpuTest, InterruptWindowFlow) {
  hw::isa::Assembler handler_code(0x3000);
  handler_code.MovImm(5, 0x77);
  handler_code.StoreAbs(5, 0x5000);  // ISR results go through memory.
  handler_code.Iret();
  InstallProgram(handler_code);

  hw::isa::Assembler as(0x1000);
  as.SetIdt(34, 0x3000);
  as.Cli();
  as.Cpuid();    // Exit while interrupts are disabled.
  as.NopBlock(10);
  as.Sti();      // Window opens.
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  InstallPortal(Event::kCpuid, mtd::kRip | mtd::kRflags | mtd::kInj,
                [&](std::uint64_t) {
                  Utcb& u = handlers_[static_cast<int>(Event::kCpuid)]->utcb();
                  EXPECT_FALSE(u.arch.interrupts_enabled);
                  // Want to inject 34 but IF=0: request a window exit.
                  u.arch.request_intr_window = true;
                  u.arch.rip += u.arch.insn_len;
                });
  InstallPortal(Event::kIntrWindow, mtd::kInj | mtd::kRflags, [&](std::uint64_t) {
    Utcb& u = handlers_[static_cast<int>(Event::kIntrWindow)]->utcb();
    u.arch.inject_pending = true;
    u.arch.inject_vector = 34;
    u.arch.request_intr_window = false;
  });
  InstallPortal(Event::kHlt, mtd::kSta, [&](std::uint64_t) {
    handlers_[static_cast<int>(Event::kHlt)]->utcb().arch.halted = true;
  });

  StartVcpu();
  RunSteps(10);
  EXPECT_EQ(hv_.EventCount("Interrupt Window"), 1u);
  EXPECT_EQ(machine_.mem().Read64(GuestHpa(0x5000)), 0x77u);
}

TEST_F(VcpuTest, VmCannotReachHypervisorMemory) {
  // A guest store to an address above its delegated region exits as MMIO
  // (EPT violation); the hypervisor's own memory cannot be named at all
  // because the nested table only contains delegated frames.
  hw::isa::Assembler as(0x1000);
  as.MovImm(0, 0x666);
  as.StoreAbs(0, 64ull << 20);  // Beyond the 32 MiB delegation.
  as.Hlt();
  InstallProgram(as);
  vcpu_->gstate().rip = 0x1000;

  int mmio_exits = 0;
  InstallPortal(Event::kMmio, mtd::kRip | mtd::kQual, [&](std::uint64_t) {
    Utcb& u = handlers_[static_cast<int>(Event::kMmio)]->utcb();
    ++mmio_exits;
    u.arch.rip += u.arch.insn_len;
  });
  InstallPortal(Event::kHlt, mtd::kSta, [&](std::uint64_t) {
    handlers_[static_cast<int>(Event::kHlt)]->utcb().arch.halted = true;
  });
  StartVcpu();
  RunSteps(10);
  EXPECT_EQ(mmio_exits, 1);
  // Kernel memory is untouched.
  EXPECT_EQ(machine_.mem().Read64(64ull << 20), 0u);
}

}  // namespace
}  // namespace nova::hv
