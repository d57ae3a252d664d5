#include "src/hw/vm_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/hw/machine.h"

namespace nova::hw {
namespace {

constexpr sim::Cycles kBudget = 10'000'000;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : machine_(MachineConfig{.cpus = {&CoreI7_920()}, .ram_size = 256ull << 20}),
        engine_(&machine_.cpu(0), &machine_.mem(), &machine_.bus(), &machine_.irq()),
        next_frame_(16ull << 20) {}

  PageTable::FrameAllocator Alloc() {
    return [this] {
      const PhysAddr f = next_frame_;
      next_frame_ += kPageSize;
      return f;
    };
  }

  // Place an assembled program at physical address == its base.
  void Install(const isa::Assembler& as) {
    (void)machine_.mem().Write(as.base(), as.bytes().data(), as.bytes().size());
  }

  Machine machine_;
  VmEngine engine_;
  PhysAddr next_frame_;
};

TEST_F(EngineTest, BasicAluAndMemory) {
  isa::Assembler as(0x10000);
  as.MovImm(0, 5);
  as.MovImm(1, 7);
  as.AddReg(0, 1);           // r0 = 12.
  as.StoreAbs(0, 0x20000);   // mem[0x20000] = 12.
  as.LoadAbs(2, 0x20000);    // r2 = 12.
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  const VmExit exit = engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kHlt);
  EXPECT_EQ(gs.regs[0], 12u);
  EXPECT_EQ(gs.regs[2], 12u);
  EXPECT_EQ(machine_.mem().Read64(0x20000), 12u);
  EXPECT_EQ(engine_.instructions(), 6u);
}

// A guest word at frame offset 4092 spans two frames: the store lands in
// both, as PhysMem::Read of the pair shows, the write observer sees it once
// as (addr, 8), and the load reads it back whole.
TEST_F(EngineTest, WordAccessAcrossFrameBoundary) {
  constexpr PhysAddr kAddr = 0x20000 + kPageSize - 4;
  constexpr std::uint64_t kValue = 0x1122334455667788;
  isa::Assembler as(0x10000);
  as.MovImm(0, kValue);
  as.StoreAbs(0, kAddr);
  as.LoadAbs(1, kAddr);
  as.LoadAbs(2, kAddr - 4);  // The word before it, inside the first frame.
  as.Hlt();
  Install(as);
  std::vector<std::pair<PhysAddr, std::uint64_t>> observed;
  machine_.mem().set_write_observer(
      [&observed](PhysAddr addr, std::uint64_t len) { observed.emplace_back(addr, len); });

  GuestState gs;
  gs.rip = 0x10000;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kHlt);
  std::uint8_t frames[2 * kPageSize];
  ASSERT_EQ(machine_.mem().Read(0x20000, frames, sizeof frames), Status::kSuccess);
  std::uint8_t want[2 * kPageSize] = {};
  std::memcpy(want + kPageSize - 4, &kValue, sizeof kValue);
  EXPECT_EQ(std::memcmp(frames, want, sizeof frames), 0);
  EXPECT_EQ(observed, (std::vector<std::pair<PhysAddr, std::uint64_t>>{{kAddr, 8}}));
  EXPECT_EQ(gs.regs[1], kValue);
  EXPECT_EQ(gs.regs[2], kValue << 32);
}

// Paging off, a native guest address is its own translation, so a load
// from ~0 translates to ~0 (no RAM there: it reads zero). Its second load
// must be one TLB hit, exactly as for a load from the base of that page:
// the same counters and the same TLB snapshot bytes (stamps and clock),
// not a hit followed by a second insert.
TEST_F(EngineTest, LoadTranslatingToLastAddressHitsTlbOnce) {
  constexpr VirtAddr kTop = ~VirtAddr{0};
  struct Twin {
    Machine machine{MachineConfig{.cpus = {&CoreI7_920()}, .ram_size = 256ull << 20}};
    VmEngine engine{&machine.cpu(0), &machine.mem(), &machine.bus(), &machine.irq()};
  };
  const auto run = [](Twin& twin, VirtAddr addr) {
    isa::Assembler as(0x10000);
    as.MovImm(1, 7);
    as.LoadAbs(1, addr);
    as.LoadAbs(1, addr);
    as.Hlt();
    (void)twin.machine.mem().Write(as.base(), as.bytes().data(), as.bytes().size());
    GuestState gs;
    gs.rip = 0x10000;
    EXPECT_EQ(twin.engine.Run(gs, VmControls{}, kBudget).reason, ExitReason::kHlt);
    EXPECT_EQ(gs.regs[1], 0u);
  };
  Twin top;
  Twin base;
  run(top, kTop);
  run(base, kTop & ~kPageMask);
  const Tlb& tlb = top.machine.cpu(0).tlb();
  EXPECT_EQ(tlb.hits().value(), 4u);    // Three fetches, the second load.
  EXPECT_EQ(tlb.misses().value(), 2u);  // The first fetch and load.
  EXPECT_EQ(tlb.hits().value(), base.machine.cpu(0).tlb().hits().value());
  EXPECT_EQ(tlb.misses().value(), base.machine.cpu(0).tlb().misses().value());
  sim::SnapWriter a;
  sim::SnapWriter b;
  ASSERT_EQ(tlb.SaveState(a), Status::kSuccess);
  ASSERT_EQ(base.machine.cpu(0).tlb().SaveState(b), Status::kSuccess);
  EXPECT_EQ(a.data(), b.data());
}

// A TLB hit returns from Translate's probe, without its walks: for a 4 KiB
// and a 4 MiB page in a guest's own two-level table and a 2 MiB page in a
// four-level shadow table, a second translation of an address returns the
// address the first one walked, counts one hit and charges no walk.
TEST_F(EngineTest, TranslateHitReturnsTheWalkedAddressWithoutAWalk) {
  const struct {
    TranslationMode mode;
    PagingMode format;
    std::uint64_t page_size;
    VirtAddr va;
    PhysAddr pa;
  } cases[] = {
      {TranslationMode::kNative, PagingMode::kTwoLevel, kPageSize, 0x400000,
       0x300000},
      {TranslationMode::kShadow, PagingMode::kFourLevel, 2ull << 20, 0x600000,
       0x4000000},
      {TranslationMode::kNative, PagingMode::kTwoLevel, 4ull << 20, 0x800000,
       0x8000000},
  };
  const Tlb& tlb = machine_.cpu(0).tlb();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.page_size);
    const PhysAddr root = Alloc()();
    PageTable pt(&machine_.mem(), c.format, root);
    ASSERT_EQ(pt.Map(c.va, c.pa, c.page_size, pte::kWritable | pte::kUser,
                     Alloc()),
              Status::kSuccess);
    GuestState gs;
    gs.paging = true;
    gs.cr3 = root;
    VmControls ctl;
    ctl.mode = c.mode;
    ctl.nested_format = c.format;
    ctl.nested_root = root;
    const VirtAddr gva = c.va + c.page_size - 8;  // The page's last word.

    const std::uint64_t misses = tlb.misses().value();
    sim::Cycles cycles = machine_.cpu(0).cycles();
    const VmEngine::XlatResult walked = engine_.Translate(gs, ctl, gva, Access{});
    ASSERT_EQ(walked.kind, VmEngine::XlatResult::Kind::kOk);
    EXPECT_EQ(walked.hpa, c.pa + c.page_size - 8);
    EXPECT_EQ(tlb.misses().value(), misses + 1);
    EXPECT_GT(machine_.cpu(0).cycles(), cycles);  // The walk's accesses.

    const std::uint64_t hits = tlb.hits().value();
    cycles = machine_.cpu(0).cycles();
    const VmEngine::XlatResult hit = engine_.Translate(gs, ctl, gva, Access{});
    ASSERT_EQ(hit.kind, VmEngine::XlatResult::Kind::kOk);
    EXPECT_EQ(hit.hpa, walked.hpa);
    EXPECT_EQ(tlb.hits().value(), hits + 1);
    EXPECT_EQ(tlb.misses().value(), misses + 1);
    EXPECT_EQ(machine_.cpu(0).cycles(), cycles);
  }
}

TEST_F(EngineTest, LoopExecutesNTimes) {
  isa::Assembler as(0x10000);
  as.MovImm(0, 10);  // Counter.
  as.MovImm(1, 0);   // Accumulator.
  const std::uint64_t top = as.AddImm(1, 3);
  as.Loop(0, top);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(gs.regs[1], 30u);
}

TEST_F(EngineTest, NopBlockChargesCycles) {
  isa::Assembler as(0x10000);
  as.NopBlock(12345);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  const sim::Cycles before = machine_.cpu(0).cycles();
  engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_GE(machine_.cpu(0).cycles() - before, 12345u);
}

TEST_F(EngineTest, BudgetExhaustionPreempts) {
  isa::Assembler as(0x10000);
  const std::uint64_t top = as.NopBlock(100);
  as.Jmp(top);
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  const VmExit exit = engine_.Run(gs, VmControls{}, 5000);
  EXPECT_EQ(exit.reason, ExitReason::kPreempt);
  EXPECT_GE(machine_.cpu(0).cycles(), 5000u);
}

TEST_F(EngineTest, NativePagingTranslatesAndFaults) {
  // Identity-map the code page and map data GVA 0x400000 -> PA 0x300000.
  const PhysAddr pt_root = 0x800000;
  PageTable pt(&machine_.mem(), PagingMode::kTwoLevel, pt_root);
  ASSERT_EQ(pt.Map(0x10000, 0x10000, kPageSize, pte::kWritable, Alloc()),
            Status::kSuccess);
  ASSERT_EQ(pt.Map(0x400000, 0x300000, kPageSize, pte::kWritable, Alloc()),
            Status::kSuccess);
  ASSERT_EQ(pt.Map(0x11000, 0x11000, kPageSize, pte::kWritable, Alloc()),
            Status::kSuccess);  // Fault-handler page.

  isa::Assembler handler(0x11000);  // #PF handler: r7 = cr2, map nothing, halt.
  handler.ReadCr2(7);
  handler.Hlt();
  Install(handler);

  isa::Assembler as(0x10000);
  as.SetIdt(kVectorPageFault, 0x11000);
  as.MovImm(0, 77);
  as.StoreAbs(0, 0x400008);  // Mapped: succeeds.
  as.LoadAbs(1, 0x400008);
  as.StoreAbs(0, 0x500000);  // Unmapped: #PF to the handler.
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  gs.cr3 = pt_root;
  gs.paging = true;
  const VmExit exit = engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kHlt);
  EXPECT_EQ(gs.regs[1], 77u);
  EXPECT_EQ(machine_.mem().Read64(0x300008), 77u);  // Translated store.
  EXPECT_EQ(gs.regs[7], 0x500000u);                 // CR2 seen by handler.
  EXPECT_EQ(gs.frame_depth, 1);                     // Still in the handler.
}

TEST_F(EngineTest, PioInterceptExits) {
  isa::Assembler as(0x10000);
  as.MovImm(3, 0xab);
  as.Out(0x70, 3);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, 0x900000);
  ASSERT_EQ(ept.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kPio);
  EXPECT_TRUE(exit.is_write);
  EXPECT_EQ(exit.port, 0x70);
  EXPECT_EQ(exit.value, 0xabu);
  // RIP stays at the faulting instruction: the VMM advances it.
  EXPECT_EQ(gs.rip, 0x10000u + isa::kInsnSize);
}

TEST_F(EngineTest, CpuidInterceptAndNative) {
  isa::Assembler as(0x10000);
  as.Cpuid();
  as.Hlt();
  Install(as);

  // Native: executes inline.
  GuestState gs;
  gs.rip = 0x10000;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kHlt);
  EXPECT_NE(gs.regs[1], 0u);  // Frequency leaf.

  // Intercepted: exits.
  GuestState gs2;
  gs2.rip = 0x10000;
  VmControls ctl;
  ctl.intercept_cpuid = true;
  EXPECT_EQ(engine_.Run(gs2, ctl, kBudget).reason, ExitReason::kCpuid);
}

TEST_F(EngineTest, NestedUnmappedGpaIsEptViolation) {
  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  ASSERT_EQ(ept.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovImm(0, 1);
  as.StoreAbs(0, 0xfee00000);  // MMIO region: not mapped in the EPT.
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kEptViolation);
  EXPECT_EQ(exit.gpa, 0xfee00000u);
  EXPECT_TRUE(exit.is_write);
}

TEST_F(EngineTest, NestedGuestPagingTwoDimensionalWalk) {
  // Guest page table (in guest-physical space) at GPA 0x40000.
  // EPT identity-maps guest RAM 0..32 MiB.
  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  for (PhysAddr gpa = 0; gpa < (32ull << 20); gpa += (2ull << 20)) {
    ASSERT_EQ(ept.Map(gpa, gpa, 2ull << 20, pte::kWritable | pte::kUser, Alloc()),
              Status::kSuccess);
  }
  PageTable gpt(&machine_.mem(), PagingMode::kTwoLevel, 0x40000);
  PhysAddr gnext = 0x50000;
  auto galloc = [&gnext] {
    const PhysAddr f = gnext;
    gnext += kPageSize;
    return f;
  };
  ASSERT_EQ(gpt.Map(0x10000, 0x10000, kPageSize, pte::kWritable, galloc),
            Status::kSuccess);
  ASSERT_EQ(gpt.Map(0x700000, 0x200000, kPageSize, pte::kWritable, galloc),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovImm(0, 99);
  as.StoreAbs(0, 0x700010);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  gs.cr3 = 0x40000;
  gs.paging = true;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;

  EXPECT_EQ(engine_.Run(gs, ctl, kBudget).reason, ExitReason::kHlt);
  EXPECT_EQ(machine_.mem().Read64(0x200010), 99u);  // GVA->GPA->HPA worked.
}

TEST_F(EngineTest, ShadowMissExitsWithPageFault) {
  const PhysAddr shadow_root = 0xa00000;
  PageTable shadow(&machine_.mem(), PagingMode::kFourLevel, shadow_root);
  ASSERT_EQ(shadow.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser,
                       Alloc()),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.LoadAbs(0, 0x600000);  // Not in the shadow table.
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  gs.paging = true;
  gs.cr3 = 0x40000;
  VmControls ctl;
  ctl.mode = TranslationMode::kShadow;
  ctl.nested_root = shadow_root;
  ctl.intercept_cr3 = true;
  ctl.intercept_invlpg = true;

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kPageFault);
  EXPECT_EQ(exit.gva, 0x600000u);
  EXPECT_FALSE(exit.is_write);
}

TEST_F(EngineTest, ShadowModeInterceptsCr3AndInvlpg) {
  const PhysAddr shadow_root = 0xa00000;
  PageTable shadow(&machine_.mem(), PagingMode::kFourLevel, shadow_root);
  ASSERT_EQ(shadow.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser,
                       Alloc()),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovCr3Imm(0x77000);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kShadow;
  ctl.nested_root = shadow_root;
  ctl.intercept_cr3 = true;

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kMovCr);
  EXPECT_EQ(exit.qual, 0x77000u);
  EXPECT_EQ(gs.cr3, 0u);  // Not performed: the hypervisor does it.
}

TEST_F(EngineTest, NativeInterruptDelivery) {
  // The handler signals through memory: IRET restores the register bank,
  // so registers cannot carry results out of an ISR.
  isa::Assembler handler(0x12000);
  handler.MovImm(5, 1);  // Mark: handler ran.
  handler.StoreAbs(5, 0x20000);
  handler.Iret();
  Install(handler);

  isa::Assembler as(0x10000);
  as.SetIdt(40, 0x12000);
  as.Sti();
  const std::uint64_t spin = as.NopBlock(10);
  as.LoadAbs(5, 0x20000);
  as.Jnz(5, as.Here() + 2 * isa::kInsnSize);  // Exit loop once flag set.
  as.Jmp(spin);
  as.Hlt();
  Install(as);

  machine_.irq().Configure(8, 0, 40);
  machine_.irq().Unmask(8);
  machine_.irq().Assert(8);

  GuestState gs;
  gs.rip = 0x10000;
  const VmExit exit = engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kHlt);
  EXPECT_EQ(machine_.mem().Read64(0x20000), 1u);
  EXPECT_EQ(gs.frame_depth, 0);  // IRET unwound.
  EXPECT_FALSE(machine_.irq().HasPending(0));
}

TEST_F(EngineTest, IretRestoresClobberedRegisters) {
  // An ISR that scribbles over every GPR must not perturb the interrupted
  // context: delivery banks the register file and IRET restores it. (A
  // clobbered register once leaked into a guest's pending CR3 switch,
  // wedging the VM in an unresolvable page-fault storm.)
  isa::Assembler handler(0x12000);
  for (int r = 0; r < 8; ++r) {
    handler.MovImm(r, 0xdead0000 + r);
  }
  handler.StoreAbs(0, 0x20000);  // Mark: handler ran.
  handler.Iret();
  Install(handler);

  isa::Assembler as(0x10000);
  as.SetIdt(40, 0x12000);
  for (int r = 0; r < 8; ++r) {
    as.MovImm(r, 100 + r);
  }
  as.Sti();  // Pending vector delivered here, clobbering every register.
  as.Hlt();
  Install(as);

  machine_.irq().Configure(8, 0, 40);
  machine_.irq().Unmask(8);
  machine_.irq().Assert(8);

  GuestState gs;
  gs.rip = 0x10000;
  const VmExit exit = engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kHlt);
  ASSERT_NE(machine_.mem().Read64(0x20000), 0u);  // The ISR did run.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(gs.regs[r], 100u + r) << "register " << r;
  }
}

TEST_F(EngineTest, GuestModeExternalInterruptExits) {
  isa::Assembler as(0x10000);
  as.NopBlock(10);
  as.Hlt();
  Install(as);

  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  ASSERT_EQ(ept.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);

  machine_.irq().Configure(8, 0, 40);
  machine_.irq().Unmask(8);
  machine_.irq().Assert(8);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;
  EXPECT_EQ(engine_.Run(gs, ctl, kBudget).reason, ExitReason::kExtInt);
}

TEST_F(EngineTest, InjectionAndInterruptWindow) {
  isa::Assembler handler(0x12000);
  handler.MovImm(5, 42);
  handler.StoreAbs(5, 0x20000);  // ISR results go through memory.
  handler.Iret();
  Install(handler);

  isa::Assembler as(0x10000);
  as.SetIdt(33, 0x12000);
  as.Cli();
  as.NopBlock(10);
  as.Sti();  // Window opens here.
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;  // Native is fine: window logic is mode-independent.

  // The VMM wants to inject but IF=0, so it requests a window exit.
  gs.request_intr_window = true;
  VmExit exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kIntrWindow);
  EXPECT_TRUE(gs.interrupts_enabled);

  // Now the VMM injects; the guest handler runs before HLT.
  gs.request_intr_window = false;
  gs.inject_pending = true;
  gs.inject_vector = 33;
  exit = engine_.Run(gs, ctl, kBudget);
  EXPECT_EQ(exit.reason, ExitReason::kHlt);
  EXPECT_EQ(machine_.mem().Read64(0x20000), 42u);
  EXPECT_EQ(engine_.injected_events(), 1u);
}

TEST_F(EngineTest, RecallForcesExit) {
  isa::Assembler as(0x10000);
  const std::uint64_t top = as.NopBlock(10);
  as.Jmp(top);
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  gs.recall_pending = true;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kRecall);
}

TEST_F(EngineTest, HaltWakesOnInjection) {
  isa::Assembler handler(0x12000);
  handler.MovImm(5, 7);
  handler.StoreAbs(5, 0x20000);  // ISR results go through memory.
  handler.Iret();
  Install(handler);

  isa::Assembler as(0x10000);
  as.SetIdt(34, 0x12000);
  as.Sti();
  as.Hlt();
  as.Hlt();  // After wake + IRET, halts again.
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kHlt);
  EXPECT_TRUE(gs.halted);

  gs.inject_pending = true;
  gs.inject_vector = 34;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kHlt);
  EXPECT_EQ(machine_.mem().Read64(0x20000), 7u);
}

TEST_F(EngineTest, InvalidOpcodeIsError) {
  (void)machine_.mem().WriteAs<std::uint8_t>(0x10000, 0xff);
  GuestState gs;
  gs.rip = 0x10000;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kError);
}

TEST_F(EngineTest, GuestLogicCallbackRuns) {
  ASSERT_EQ(engine_.AddGuestLogic([](GuestState& gs) { gs.regs[2] = 1; }), 0u);
  ASSERT_EQ(engine_.AddGuestLogic([](GuestState& gs) { gs.regs[2] = 0x1234; }), 1u);
  isa::Assembler as(0x10000);
  as.GuestLogic(1);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  engine_.Run(gs, VmControls{}, kBudget);
  EXPECT_EQ(gs.regs[2], 0x1234u);
}

// An op naming no handler is a broken guest image: the guest stops at it
// instead of running on.
TEST_F(EngineTest, UnregisteredGuestLogicIdExitsWithError) {
  ASSERT_EQ(engine_.AddGuestLogic([](GuestState& gs) { gs.regs[3] = 1; }), 0u);
  isa::Assembler as(0x10000);
  as.GuestLogic(1);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  EXPECT_EQ(engine_.Run(gs, VmControls{}, kBudget).reason, ExitReason::kError);
  EXPECT_EQ(gs.rip, 0x10000u);
  EXPECT_EQ(gs.regs[3], 0u);
}

TEST_F(EngineTest, CopyMovesBytesAndCharges) {
  isa::Assembler as(0x10000);
  as.MovImm(0, 0x30000);  // dst
  as.MovImm(1, 0x20000);  // src
  as.Copy(0, 1, 8192);    // Crosses pages.
  as.Hlt();
  Install(as);

  for (std::uint64_t off = 0; off < 8192; off += 8) {
    (void)machine_.mem().Write64(0x20000 + off, off * 3 + 1);
  }
  GuestState gs;
  gs.rip = 0x10000;
  engine_.Run(gs, VmControls{}, kBudget);
  for (std::uint64_t off = 0; off < 8192; off += 8) {
    ASSERT_EQ(machine_.mem().Read64(0x30000 + off), off * 3 + 1);
  }
}

// Run keeps one VmExit for the whole call and a step writes it only when
// it exits, so an exit must carry exactly the fields its own step set.
void ExpectSameExit(const VmExit& got, const VmExit& want) {
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.gva, want.gva);
  EXPECT_EQ(got.gpa, want.gpa);
  EXPECT_EQ(got.pf.present, want.pf.present);
  EXPECT_EQ(got.pf.write, want.pf.write);
  EXPECT_EQ(got.pf.user, want.pf.user);
  EXPECT_EQ(got.is_write, want.is_write);
  EXPECT_EQ(got.port, want.port);
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.reg, want.reg);
  EXPECT_EQ(got.hypercall, want.hypercall);
  EXPECT_EQ(got.qual, want.qual);
}

TEST_F(EngineTest, EptViolationAfterDeliveredPageFaultCarriesOnlyItsFields) {
  // EPT: guest RAM 0..32 MiB. The guest maps a read-only page, and a page
  // whose GPA (64 MiB) the EPT does not map.
  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  for (PhysAddr gpa = 0; gpa < (32ull << 20); gpa += (2ull << 20)) {
    ASSERT_EQ(ept.Map(gpa, gpa, 2ull << 20, pte::kWritable | pte::kUser, Alloc()),
              Status::kSuccess);
  }
  PageTable gpt(&machine_.mem(), PagingMode::kTwoLevel, 0x40000);
  PhysAddr gnext = 0x50000;
  auto galloc = [&gnext] {
    const PhysAddr f = gnext;
    gnext += kPageSize;
    return f;
  };
  constexpr VirtAddr kReadOnly = 0x700000;
  constexpr VirtAddr kOutsideEpt = 0x800000;
  constexpr std::uint64_t kOutsideEptGpa = 64ull << 20;
  ASSERT_EQ(gpt.Map(0x10000, 0x10000, kPageSize, pte::kWritable, galloc),
            Status::kSuccess);
  ASSERT_EQ(gpt.Map(kReadOnly, 0x200000, kPageSize, 0, galloc), Status::kSuccess);
  ASSERT_EQ(gpt.Map(kOutsideEpt, kOutsideEptGpa, kPageSize, pte::kWritable, galloc),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovImm(0, 7);
  as.StoreAbs(0, kReadOnly + 0x18);  // #PF (present, write): no exit.
  as.Hlt();
  const std::uint64_t handler = as.LoadAbs(1, kOutsideEpt + 0x28);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  gs.cr3 = 0x40000;
  gs.paging = true;
  gs.idt[kVectorPageFault] = handler;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  ExpectSameExit(exit, VmExit{.reason = ExitReason::kEptViolation,
                              .gva = kOutsideEpt + 0x28,
                              .gpa = kOutsideEptGpa + 0x28,
                              .is_write = false});
  EXPECT_EQ(gs.cr2, kReadOnly + 0x18);  // The #PF went through the IDT...
  EXPECT_EQ(gs.frame_depth, 1);
  EXPECT_EQ(gs.rip, handler);  // ...and the load in its handler exited.
}

TEST_F(EngineTest, CopyToPageOutsideEptExitsWithOnlyEptViolationFields) {
  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  ASSERT_EQ(ept.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);
  ASSERT_EQ(ept.Map(0x20000, 0x20000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovImm(0, 0x3000040);  // dst: not mapped in the EPT.
  as.MovImm(1, 0x20000);    // src
  const std::uint64_t copy = as.Copy(0, 1, 256);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;

  const VmExit exit = engine_.Run(gs, ctl, kBudget);
  ExpectSameExit(exit, VmExit{.reason = ExitReason::kEptViolation,
                              .gva = 0x3000040,
                              .gpa = 0x3000040,
                              .is_write = true});
  EXPECT_EQ(gs.rip, copy);  // The copy restarts once the VMM maps the page.
}

TEST_F(EngineTest, MmioDirectAccessRoutesToDevice) {
  // A device window mapped in the EPT is reached without exits (direct
  // assignment / framebuffer case from §7.2).
  class Probe : public Device {
   public:
    Probe() : Device(9, "probe") {}
    std::uint64_t MmioRead(std::uint64_t off, unsigned) override { return off + 1; }
    void MmioWrite(std::uint64_t off, unsigned, std::uint64_t v) override {
      last_off = off;
      last_val = v;
    }
    std::uint64_t last_off = 0;
    std::uint64_t last_val = 0;
  };
  auto* probe = machine_.AddDevice(std::make_unique<Probe>());
  ASSERT_EQ(machine_.bus().RegisterMmio(0xc0000000, 0x1000, probe), Status::kSuccess);

  const PhysAddr ept_root = 0x900000;
  PageTable ept(&machine_.mem(), PagingMode::kFourLevel, ept_root);
  ASSERT_EQ(ept.Map(0x10000, 0x10000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);
  ASSERT_EQ(ept.Map(0xd0000000, 0xc0000000, kPageSize, pte::kWritable | pte::kUser,
                    Alloc()),
            Status::kSuccess);

  isa::Assembler as(0x10000);
  as.MovImm(0, 55);
  as.StoreAbs(0, 0xd0000010);  // GPA -> device window.
  as.LoadAbs(1, 0xd0000020);
  as.Hlt();
  Install(as);

  GuestState gs;
  gs.rip = 0x10000;
  VmControls ctl;
  ctl.mode = TranslationMode::kNested;
  ctl.nested_root = ept_root;
  EXPECT_EQ(engine_.Run(gs, ctl, kBudget).reason, ExitReason::kHlt);
  EXPECT_EQ(probe->last_off, 0x10u);
  EXPECT_EQ(probe->last_val, 55u);
  EXPECT_EQ(gs.regs[1], 0x21u);
}

}  // namespace
}  // namespace nova::hw
