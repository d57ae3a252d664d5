#include "src/hw/vm_engine.h"

#include <algorithm>

namespace nova::hw {

const char* ExitReasonName(ExitReason r) {
  switch (r) {
    case ExitReason::kNone: return "none";
    case ExitReason::kPageFault: return "page-fault";
    case ExitReason::kEptViolation: return "ept-violation";
    case ExitReason::kPio: return "port-io";
    case ExitReason::kCpuid: return "cpuid";
    case ExitReason::kHlt: return "hlt";
    case ExitReason::kMovCr: return "mov-cr";
    case ExitReason::kInvlpg: return "invlpg";
    case ExitReason::kExtInt: return "external-interrupt";
    case ExitReason::kIntrWindow: return "interrupt-window";
    case ExitReason::kRecall: return "recall";
    case ExitReason::kVmcall: return "vmcall";
    case ExitReason::kPreempt: return "preemption";
    case ExitReason::kError: return "error";
  }
  return "?";
}

VmEngine::VmEngine(Cpu* cpu, PhysMem* mem, Bus* bus, IrqChip* irq)
    : cpu_(cpu), mem_(mem), bus_(bus), irq_(irq) {}

std::uint64_t VmEngine::PhysRead(PhysAddr pa) {
  if (bus_->FindMmio(pa) != nullptr) {
    cpu_->Charge(costs_.mmio_access);
    std::uint64_t out = 0;
    (void)bus_->MmioRead(pa, 8, &out);
    return out;
  }
  cpu_->Charge(cpu_->model().mem_access);
  return mem_->Read64(pa);
}

void VmEngine::PhysWrite(PhysAddr pa, std::uint64_t value) {
  if (bus_->FindMmio(pa) != nullptr) {
    cpu_->Charge(costs_.mmio_access);
    (void)bus_->MmioWrite(pa, 8, value);
    return;
  }
  cpu_->Charge(cpu_->model().mem_access);
  (void)mem_->Write64(pa, value);
}

VmEngine::XlatResult VmEngine::TranslateGpa(const VmControls& ctl,
                                            std::uint64_t gpa, Access access) {
  XlatResult r;
  if (ctl.mode != TranslationMode::kNested) {
    r.hpa = gpa;  // Native / shadow: guest-physical is host-physical.
    return r;
  }
  if (const std::uint64_t delta = nested_tlb_.Probe(ctl.tag, gpa, access);
      delta != Tlb::kMiss) {
    r.hpa = gpa + delta;
    return r;
  }
  PageTable host(mem_, ctl.nested_format, ctl.nested_root);
  const WalkResult w = host.Walk(gpa, access, /*set_ad=*/false);
  cpu_->Charge(static_cast<sim::Cycles>(w.accesses) * cpu_->model().mem_access);
  if (!Ok(w.status)) {
    r.kind = XlatResult::Kind::kHostFault;
    r.gpa = gpa;
    r.pf = w.fault;
    return r;
  }
  (void)nested_tlb_.Insert(ctl.tag, gpa, w.pa, w.page_size, w.writable(), true,
                           true);
  r.hpa = w.pa;
  return r;
}

VmEngine::XlatResult VmEngine::Translate(GuestState& gs, const VmControls& ctl,
                                         VirtAddr gva, Access access) {
  if (const std::uint64_t delta = cpu_->tlb().Probe(ctl.tag, gva, access);
      delta != Tlb::kMiss) {
    XlatResult r;
    r.hpa = gva + delta;
    return r;
  }
  return TranslateMiss(gs, ctl, gva, access);
}

VmEngine::XlatResult VmEngine::TranslateMiss(GuestState& gs,
                                             const VmControls& ctl,
                                             VirtAddr gva, Access access) {
  XlatResult r;
  Tlb& tlb = cpu_->tlb();
  const CpuModel& model = cpu_->model();

  switch (ctl.mode) {
    case TranslationMode::kNative: {
      if (!gs.paging) {
        r.hpa = gva;
        (void)tlb.Insert(ctl.tag, gva, gva, kPageSize, true, true, true);
        return r;
      }
      PageTable pt(mem_, PagingMode::kTwoLevel, gs.cr3);
      const WalkResult w = pt.Walk(gva, access, /*set_ad=*/true);
      cpu_->Charge(static_cast<sim::Cycles>(w.accesses) * model.mem_access);
      if (!Ok(w.status)) {
        r.kind = XlatResult::Kind::kGuestFault;
        r.pf = w.fault;
        return r;
      }
      (void)tlb.Insert(ctl.tag, gva, w.pa, w.page_size, w.writable(), w.user(),
                       w.dirty(), w.global());
      r.hpa = w.pa;
      return r;
    }

    case TranslationMode::kNested: {
      std::uint64_t gpa = gva;
      std::uint64_t guest_page = 0;  // 0: determined by the host page below.
      bool writable = true;
      bool user = true;
      if (gs.paging) {
        // Two-dimensional walk: every guest-table access itself goes
        // through the nested tables.
        XlatResult table_xlat;
        const auto resolve = [&](PhysAddr entry_gpa) {
          table_xlat = TranslateGpa(ctl, entry_gpa, Access{.write = false});
          return table_xlat.kind == XlatResult::Kind::kOk ? table_xlat.hpa : kNoHpa;
        };
        const WalkResult w = PageTable(mem_, PagingMode::kTwoLevel, gs.cr3)
                                 .Walk(gva, access, /*set_ad=*/true, resolve);
        cpu_->Charge(static_cast<sim::Cycles>(w.accesses) * model.mem_access);
        if (w.table_fault) {
          return table_xlat;  // EPT violation while walking the guest table.
        }
        if (!Ok(w.status)) {
          r.kind = XlatResult::Kind::kGuestFault;
          r.pf = w.fault;
          return r;
        }
        guest_page = w.page_size;
        gpa = w.pa;
        writable = w.writable();
        user = w.user();
      }
      const XlatResult fx = TranslateGpa(ctl, gpa, access);
      if (fx.kind != XlatResult::Kind::kOk) {
        return fx;
      }
      // The TLB caches GVA->HPA at the smaller of the two granularities.
      std::uint64_t span = guest_page != 0 ? guest_page : kPageSize;
      (void)tlb.Insert(ctl.tag, gva, fx.hpa, std::min(span, kPageSize * 512),
                 writable, user, access.write);
      r.hpa = fx.hpa;
      return r;
    }

    case TranslationMode::kShadow: {
      PageTable shadow(mem_, ctl.nested_format, ctl.nested_root);
      const WalkResult w = shadow.Walk(gva, access, /*set_ad=*/false);
      cpu_->Charge(static_cast<sim::Cycles>(w.accesses) * model.mem_access);
      if (!Ok(w.status)) {
        r.kind = XlatResult::Kind::kShadowMiss;
        r.pf = w.fault;
        return r;
      }
      (void)tlb.Insert(ctl.tag, gva, w.pa, w.page_size, w.writable(), w.user(),
                       w.dirty());
      r.hpa = w.pa;
      return r;
    }
  }
  return r;
}

bool VmEngine::DeliverEvent(GuestState& gs, std::uint8_t vector) {
  if (vector >= kNumVectors || gs.idt[vector] == 0 ||
      gs.frame_depth >= kMaxIntrNesting) {
    return false;
  }
  gs.frames[gs.frame_depth++] = {gs.rip, gs.interrupts_enabled, gs.regs};
  gs.rip = gs.idt[vector];
  gs.interrupts_enabled = false;
  gs.halted = false;
  cpu_->Charge(costs_.event_delivery);
  return true;
}

bool VmEngine::HandleXlatFault(GuestState& gs, const XlatResult& x, VirtAddr gva,
                               Access access, VmExit* exit) {
  switch (x.kind) {
    case XlatResult::Kind::kGuestFault:
      gs.cr2 = gva;
      if (!DeliverEvent(gs, kVectorPageFault)) {
        *exit = VmExit{.reason = ExitReason::kError};
        return true;
      }
      return false;  // The instruction restarts after the handler.
    case XlatResult::Kind::kHostFault:
      *exit = VmExit{.reason = ExitReason::kEptViolation,
                     .gva = gva,
                     .gpa = x.gpa,
                     .is_write = access.write};
      return true;
    case XlatResult::Kind::kShadowMiss:
      *exit = VmExit{.reason = ExitReason::kPageFault,
                     .gva = gva,
                     .pf = x.pf,
                     .is_write = access.write};
      return true;
    case XlatResult::Kind::kOk:
      return false;
  }
  return false;
}

VmExit VmEngine::Run(GuestState& gs, const VmControls& ctl,
                     sim::Cycles cycle_budget) {
  const sim::Cycles start = cpu_->cycles();
  VmExit exit;  // Written by the one step that exits.
  for (;;) {
    if (cpu_->cycles() - start >= cycle_budget) {
      return VmExit{.reason = ExitReason::kPreempt};
    }
    // --- Instruction-boundary event checks ---
    if (gs.recall_pending) {
      return VmExit{.reason = ExitReason::kRecall};
    }
    if (irq_->HasPending(cpu_->id())) {
      if (ctl.mode != TranslationMode::kNative && !ctl.direct_interrupts) {
        return VmExit{.reason = ExitReason::kExtInt};
      }
      if (gs.interrupts_enabled) {
        const auto vector = irq_->PendingVector(cpu_->id());
        irq_->Acknowledge(cpu_->id(), *vector);
        if (!DeliverEvent(gs, *vector)) {
          return VmExit{.reason = ExitReason::kError};
        }
        continue;
      }
    }
    if (gs.inject_pending && gs.interrupts_enabled) {
      gs.inject_pending = false;
      injections_.Add();
      if (!DeliverEvent(gs, gs.inject_vector)) {
        return VmExit{.reason = ExitReason::kError};
      }
      continue;
    }
    if (gs.halted) {
      return VmExit{.reason = ExitReason::kHlt};
    }

    if (Step(gs, ctl, &exit)) {
      return exit;
    }
  }
}

bool VmEngine::Step(GuestState& gs, const VmControls& ctl, VmExit* exit) {
  if ((gs.rip & (isa::kInsnSize - 1)) != 0) {
    *exit = VmExit{.reason = ExitReason::kError};
    return true;
  }
  // Fetch through the TLB and page tables.
  const Access fetch{.write = false, .execute = true};
  const XlatResult x = Translate(gs, ctl, gs.rip, fetch);
  if (x.kind != XlatResult::Kind::kOk) {
    // Exits, or retries from the #PF handler it delivered.
    return HandleXlatFault(gs, x, gs.rip, fetch, exit);
  }
  // An aligned fetch never crosses a frame, and its constant size inlines
  // the read to two 8-byte loads.
  std::uint8_t bytes[isa::kInsnSize];
  (void)mem_->Read(x.hpa, bytes, isa::kInsnSize);
  cpu_->Charge(cpu_->model().mem_access);
  const isa::Insn insn = isa::Decode(bytes);
  cpu_->Charge(cpu_->model().op_cost);
  insns_.Add();
  return Execute(gs, ctl, insn, gs.rip + isa::kInsnSize, exit);
}

bool VmEngine::Execute(GuestState& gs, const VmControls& ctl,
                       const isa::Insn& insn, std::uint64_t next_rip,
                       VmExit* exit) {
  using isa::Opcode;
  // Exit with rip at the current instruction, unless the case moved it.
  const auto exit_with = [exit](const VmExit& e) {
    *exit = e;
    return true;
  };

  switch (insn.opcode) {
    case Opcode::kNopBlock:
      cpu_->Charge(insn.imm32);
      gs.rip = next_rip;
      break;

    case Opcode::kMovImm:
      gs.regs[insn.r1 & 7] = insn.imm64;
      gs.rip = next_rip;
      break;

    case Opcode::kAdd:
      gs.regs[insn.r1 & 7] +=
          insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : insn.imm64;
      gs.rip = next_rip;
      break;

    case Opcode::kAnd:
      gs.regs[insn.r1 & 7] &=
          insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : insn.imm64;
      gs.rip = next_rip;
      break;

    case Opcode::kLoad: {
      const std::uint64_t addr =
          (insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : 0) + insn.imm64;
      const Access access{.write = false};
      const XlatResult x = Translate(gs, ctl, addr, access);
      if (x.kind != XlatResult::Kind::kOk) {
        return HandleXlatFault(gs, x, addr, access, exit);
      }
      gs.regs[insn.r1 & 7] = PhysRead(x.hpa);
      gs.rip = next_rip;
      break;
    }

    case Opcode::kStore: {
      const std::uint64_t addr =
          (insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : 0) + insn.imm64;
      const Access access{.write = true};
      const XlatResult x = Translate(gs, ctl, addr, access);
      if (x.kind != XlatResult::Kind::kOk) {
        return HandleXlatFault(gs, x, addr, access, exit);
      }
      PhysWrite(x.hpa, gs.regs[insn.r1 & 7]);
      gs.rip = next_rip;
      break;
    }

    case Opcode::kCopy: {
      // Page-chunked copy with per-page translation and per-word charge.
      // A fault restarts the whole copy once it is resolved.
      std::uint64_t dst = gs.regs[insn.r1 & 7];
      std::uint64_t src = gs.regs[insn.r2 & 7];
      std::uint64_t remaining = insn.imm32;
      const Access read{.write = false};
      const Access write{.write = true};
      while (remaining > 0) {
        const std::uint64_t chunk = std::min<std::uint64_t>(
            {remaining, kPageSize - (src & kPageMask), kPageSize - (dst & kPageMask)});
        const XlatResult sx = Translate(gs, ctl, src, read);
        if (sx.kind != XlatResult::Kind::kOk) {
          return HandleXlatFault(gs, sx, src, read, exit);
        }
        const XlatResult dx = Translate(gs, ctl, dst, write);
        if (dx.kind != XlatResult::Kind::kOk) {
          return HandleXlatFault(gs, dx, dst, write, exit);
        }
        std::uint8_t buf[kPageSize];
        (void)mem_->Read(sx.hpa, buf, chunk);
        (void)mem_->Write(dx.hpa, buf, chunk);
        cpu_->Charge((chunk + 7) / 8 * cpu_->model().word_copy +
                     2 * cpu_->model().mem_access);
        src += chunk;
        dst += chunk;
        remaining -= chunk;
      }
      gs.rip = next_rip;
      break;
    }

    case Opcode::kJmp:
      gs.rip = insn.imm64;
      break;

    case Opcode::kJnz:
      gs.rip = gs.regs[insn.r1 & 7] != 0 ? insn.imm64 : next_rip;
      break;

    case Opcode::kLoop:
      gs.rip = --gs.regs[insn.r1 & 7] != 0 ? insn.imm64 : next_rip;
      break;

    case Opcode::kOut:
    case Opcode::kIn: {
      const bool is_out = insn.opcode == Opcode::kOut;
      const auto port = static_cast<std::uint16_t>(insn.imm32);
      const bool direct =
          ctl.mode == TranslationMode::kNative ||
          (ctl.io_passthrough != nullptr && ctl.io_passthrough->Test(port));
      if (direct) {
        cpu_->Charge(costs_.pio_access);
        if (is_out) {
          (void)bus_->PioWrite(port, 4, static_cast<std::uint32_t>(gs.regs[insn.r1 & 7]));
        } else {
          std::uint32_t v = 0;
          (void)bus_->PioRead(port, 4, &v);
          gs.regs[insn.r1 & 7] = v;
        }
        gs.rip = next_rip;
        break;
      }
      return exit_with(VmExit{.reason = ExitReason::kPio,
                              .is_write = is_out,
                              .port = port,
                              .width = 4,
                              .value = is_out ? gs.regs[insn.r1 & 7] : 0,
                              .reg = static_cast<std::uint8_t>(insn.r1 & 7)});
    }

    case Opcode::kCpuid:
      if (ctl.intercept_cpuid) {
        return exit_with(VmExit{.reason = ExitReason::kCpuid});
      }
      cpu_->Charge(costs_.cpuid);
      gs.regs[0] = 0x0000'0001;  // Stepping-style identification leaf.
      gs.regs[1] = cpu_->model().frequency.khz();
      gs.regs[2] = cpu_->model().has_guest_tlb_tags ? 1 : 0;
      gs.regs[3] = 0x0178'bfbf;
      gs.rip = next_rip;
      break;

    case Opcode::kHlt:
      gs.rip = next_rip;
      if (ctl.intercept_hlt) {
        return exit_with(VmExit{.reason = ExitReason::kHlt});
      }
      gs.halted = true;
      return exit_with(VmExit{.reason = ExitReason::kHlt});

    case Opcode::kRdtsc:
      gs.regs[insn.r1 & 7] = cpu_->cycles();
      gs.rip = next_rip;
      break;

    case Opcode::kMovCr3: {
      const std::uint64_t value =
          insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : insn.imm64;
      if (ctl.intercept_cr3) {
        return exit_with(VmExit{.reason = ExitReason::kMovCr, .qual = value});
      }
      gs.cr3 = value;
      cpu_->tlb().FlushNonGlobal(ctl.tag);
      cpu_->Charge(30);
      gs.rip = next_rip;
      break;
    }

    case Opcode::kReadCr3:
      gs.regs[insn.r1 & 7] = gs.cr3;
      gs.rip = next_rip;
      break;

    case Opcode::kReadCr2:
      gs.regs[insn.r1 & 7] = gs.cr2;
      gs.rip = next_rip;
      break;

    case Opcode::kInvlpg: {
      const std::uint64_t addr =
          insn.r2 != isa::kNoReg ? gs.regs[insn.r2 & 7] : insn.imm64;
      if (ctl.intercept_invlpg) {
        return exit_with(VmExit{.reason = ExitReason::kInvlpg, .gva = addr});
      }
      cpu_->tlb().FlushVa(ctl.tag, addr);
      cpu_->Charge(50);
      gs.rip = next_rip;
      break;
    }

    case Opcode::kSti:
      gs.interrupts_enabled = true;
      gs.rip = next_rip;
      if (gs.request_intr_window) {
        return exit_with(VmExit{.reason = ExitReason::kIntrWindow});
      }
      break;

    case Opcode::kCli:
      gs.interrupts_enabled = false;
      gs.rip = next_rip;
      break;

    case Opcode::kIret: {
      if (gs.frame_depth == 0) {
        return exit_with(VmExit{.reason = ExitReason::kError});
      }
      const GuestState::Frame frame = gs.frames[--gs.frame_depth];
      gs.rip = frame.rip;
      gs.interrupts_enabled = frame.interrupts_enabled;
      gs.regs = frame.regs;
      cpu_->Charge(costs_.iret);
      if (gs.interrupts_enabled && gs.request_intr_window) {
        return exit_with(VmExit{.reason = ExitReason::kIntrWindow});
      }
      break;
    }

    case Opcode::kSetIdt:
      if (insn.imm32 < kNumVectors) {
        gs.idt[insn.imm32] = insn.imm64;
      }
      gs.rip = next_rip;
      break;

    case Opcode::kVmcall:
      if (ctl.intercept_vmcall) {
        return exit_with(VmExit{.reason = ExitReason::kVmcall,
                                .hypercall = insn.imm32,
                                .qual = insn.imm32});
      }
      gs.rip = next_rip;
      break;

    case Opcode::kGuestLogic:
      if (insn.imm32 >= guest_logic_.size()) {
        return exit_with(VmExit{.reason = ExitReason::kError});
      }
      gs.rip = next_rip;  // Logic may overwrite rip (e.g. to re-loop).
      guest_logic_[insn.imm32](gs);
      break;

    default:
      return exit_with(VmExit{.reason = ExitReason::kError});
  }
  return false;
}

}  // namespace nova::hw
