// Virtual-CPU execution: world switches, VM-exit dispatch through event
// portals, and architectural state transfer governed by each portal's
// message transfer descriptor (§5.2, §7).
#include "src/hv/kernel.h"

#include <algorithm>

namespace nova::hv {
namespace {

// Pack PIO qualification the way the exit message carries it.
std::uint64_t PackPioQual(const hw::VmExit& exit) {
  return static_cast<std::uint64_t>(exit.port) |
         (static_cast<std::uint64_t>(exit.width) << 16) |
         (static_cast<std::uint64_t>(exit.is_write ? 1 : 0) << 24) |
         (static_cast<std::uint64_t>(exit.reg) << 25);
}

}  // namespace

void Hypervisor::TransferToUtcb(Ec* vcpu, const hw::VmExit& exit, Mtd m,
                                Utcb& utcb) {
  const std::uint32_t cpu_id = vcpu->cpu();
  const hw::CpuModel& model = cpu(cpu_id).model();
  hw::GuestState& gs = vcpu->gstate();
  ArchState& a = utcb.arch;

  // Reading guest state out of the VMCS costs one VMREAD per field; the
  // MTD keeps this minimal (§5.2). On AMD the VMCB is plain memory and
  // the reads are ordinary loads.
  const sim::Cycles read_cost = model.vmread != 0 ? model.vmread : model.mem_access;
  Charge(cpu_id, static_cast<sim::Cycles>(mtd::FieldCount(m)) * read_cost);
  Charge(cpu_id, static_cast<sim::Cycles>(mtd::WordCount(m)) * model.word_copy);

  if (m & mtd::kGprAcdb) {
    for (int i = 0; i < 4; ++i) a.regs[i] = gs.regs[i];
  }
  if (m & mtd::kGprBsd) {
    for (int i = 4; i < 8; ++i) a.regs[i] = gs.regs[i];
  }
  if (m & mtd::kRip) {
    a.rip = gs.rip;
    a.insn_len = hw::isa::kInsnSize;
  }
  if (m & mtd::kRflags) {
    a.interrupts_enabled = gs.interrupts_enabled;
  }
  if (m & mtd::kCr) {
    a.cr3 = gs.cr3;
    a.cr2 = gs.cr2;
    a.paging = gs.paging;
  }
  if (m & mtd::kQual) {
    a.qual_gva = exit.gva;
    a.qual_gpa = exit.gpa;
    a.qual = exit.reason == hw::ExitReason::kPio ? PackPioQual(exit) : exit.qual;
  }
  if (m & mtd::kInj) {
    a.inject_pending = gs.inject_pending;
    a.inject_vector = gs.inject_vector;
    a.request_intr_window = gs.request_intr_window;
  }
  if (m & mtd::kSta) {
    a.halted = gs.halted;
  }
  if (m & mtd::kTsc) {
    a.tsc = cpu(cpu_id).cycles();
  }
  utcb.mtd = m;
}

void Hypervisor::TransferFromUtcb(Ec* vcpu, Mtd m, const Utcb& utcb) {
  const std::uint32_t cpu_id = vcpu->cpu();
  const hw::CpuModel& model = cpu(cpu_id).model();
  hw::GuestState& gs = vcpu->gstate();
  const ArchState& a = utcb.arch;

  const sim::Cycles write_cost = model.vmwrite != 0 ? model.vmwrite : model.mem_access;
  Charge(cpu_id, static_cast<sim::Cycles>(mtd::FieldCount(m)) * write_cost);
  Charge(cpu_id, static_cast<sim::Cycles>(mtd::WordCount(m)) * model.word_copy);

  if (m & mtd::kGprAcdb) {
    for (int i = 0; i < 4; ++i) gs.regs[i] = a.regs[i];
  }
  if (m & mtd::kGprBsd) {
    for (int i = 4; i < 8; ++i) gs.regs[i] = a.regs[i];
  }
  if (m & mtd::kRip) {
    gs.rip = a.rip;
  }
  if (m & mtd::kRflags) {
    gs.interrupts_enabled = a.interrupts_enabled;
  }
  if (m & mtd::kCr) {
    gs.cr3 = a.cr3;
    gs.cr2 = a.cr2;
    gs.paging = a.paging;
  }
  if (m & mtd::kInj) {
    gs.inject_pending = a.inject_pending;
    gs.inject_vector = a.inject_vector;
    gs.request_intr_window = a.request_intr_window;
  }
  if (m & mtd::kSta) {
    gs.halted = a.halted;
  }
  if (m & mtd::kTlbFlush) {
    cpu(cpu_id).tlb().FlushTag(vcpu->ctl().tag);
    if (vcpu->ctl().mode == hw::TranslationMode::kShadow) {
      VtlbFor(vcpu).Flush();
    }
  }
}

bool Hypervisor::DispatchVmEvent(Ec* vcpu, Event event, const hw::VmExit& exit) {
  const std::uint32_t cpu_id = vcpu->cpu();
  Pd& vm = vcpu->pd();
  const CapSel sel = vcpu->evt_base() + static_cast<CapSel>(event);

  // The kernel looks up the event portal in the *VM's* capability space;
  // the VM itself cannot perform hypercalls (§4.2).
  Pt* pt = LookupCharged<Pt>(&vm, sel, ObjType::kPt, perm::kCall, cpu_id);
  if (pt == nullptr) {
    events_.vm_event_unhandled.Count(cpu(cpu_id));
    return false;
  }
  Ec& handler = pt->handler();
  if (handler.cpu() != cpu_id || handler.busy()) {
    return false;
  }

  // Donation: the virtual CPU lends its scheduling context to the handler,
  // so the whole VM-exit handling is accounted to the VM's time quantum
  // and the kernel switches without consulting the scheduler (§5.2).
  const hw::CpuModel& model = cpu(cpu_id).model();
  Charge(cpu_id, costs_.portal_traversal + costs_.context_switch +
                     costs_.addr_space_switch + model.tlb_flush / 2 +
                     costs_.ipc_refill_entries * model.tlb_refill_entry);
  events_.vm_event_ipc.Count(cpu(cpu_id), static_cast<std::uint64_t>(event));

  TransferToUtcb(vcpu, exit, pt->mtd(), handler.utcb());
  handler.set_busy(true);
  handler.handler()(pt->id());
  handler.set_busy(false);

  // Reply capability invocation: new state for the virtual CPU.
  Charge(cpu_id, costs_.reply_path + costs_.context_switch +
                     costs_.addr_space_switch);
  TransferFromUtcb(vcpu, handler.utcb().mtd, handler.utcb());
  return true;
}

void Hypervisor::RunVcpu(Sc* sc, sim::Cycles budget) {
  // Pin the vCPU for the slice: device events fired inside it (via
  // SyncDeviceTime) may tear down this very domain — the root's crash
  // recovery does exactly that — which frees the SC and, without the pin,
  // the guest state this loop reads.
  const std::shared_ptr<Ec> pin = sc->ec_ref();
  Ec* vcpu = pin.get();
  const std::uint32_t cpu_id = vcpu->cpu();
  // This core is about to hold translations tagged with the VM's tag:
  // record it so unmaps know which cores to shoot down.
  vcpu->pd().NoteCore(cpu_id);
  hw::Cpu& c = cpu(cpu_id);
  const hw::CpuModel& model = c.model();
  hw::VmEngine& engine = *engines_[cpu_id];
  hw::GuestState& gs = vcpu->gstate();
  hw::VmControls& ctl = vcpu->ctl();

  const sim::Cycles start = c.cycles();
  bool need_entry = true;  // Charge world-switch costs only on real entries.
  for (;;) {
    if (need_entry) {
      // --- VM entry ---
      c.Charge(model.vm_resume);
      if (!model.has_guest_tlb_tags) {
        // Untagged TLB: every world switch flushes (§8.1, VPID discussion).
        c.tlb().FlushAll();
        c.Charge(model.tlb_flush);
      }
      need_entry = false;
    }

    const sim::Cycles used = c.cycles() - start;
    if (used >= budget) {
      return;
    }
    // Bound the slice by the next device event so completions and timer
    // ticks are delivered with hardware latency, not quantum latency.
    sim::Cycles slice = budget - used;
    SyncDeviceTime();
    if (vcpu->dead()) {
      return;  // An event callback destroyed the domain mid-slice.
    }
    if (!machine_->events().empty()) {
      const sim::PicoSeconds deadline = machine_->events().NextDeadline();
      if (deadline > c.NowPs()) {
        const sim::Cycles target = model.frequency.PicosToCycles(deadline);
        const sim::Cycles until = target > c.cycles() ? target - c.cycles() + 1 : 1;
        slice = std::min(slice, until);
      }
    }
    const hw::VmExit exit = engine.Run(gs, ctl, slice);
    SyncDeviceTime();
    if (vcpu->dead()) {
      return;
    }

    if (exit.reason == hw::ExitReason::kPreempt &&
        c.cycles() - start < budget) {
      continue;  // Slice ended for device-event delivery: no world switch.
    }

    // --- VM exit ---
    c.Charge(model.vm_exit);
    need_entry = true;
    if (!model.has_guest_tlb_tags) {
      // Untagged parts flush on both transitions; the cycle cost for the
      // round trip is charged once on the entry path.
      c.tlb().FlushAll();
    }

    // Host-side handling span ("exit:<reason>"): Begin here, End on every
    // path out of the handling below — including the early returns —
    // courtesy of the scope guard.
    sim::ScopedSpan exit_span(
        tracer_, sim::TraceCat::kVmExit,
        events_.exit[static_cast<std::size_t>(exit.reason)],
        static_cast<std::uint8_t>(cpu_id), [&c] { return c.NowPs(); },
        exit.gva, static_cast<std::uint64_t>(exit.reason));

    switch (exit.reason) {
      case hw::ExitReason::kPreempt:
        return;

      case hw::ExitReason::kHlt:
        if (ctl.intercept_hlt) {
          events_.hlt.Count(c);
          if (!DispatchVmEvent(vcpu, Event::kHlt, exit)) {
            vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
            return;
          }
          if (gs.halted) {
            // The VMM parked the virtual CPU until the next event.
            vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
            return;
          }
          break;
        }
        // Uninterceped halt (direct configuration): idle until the next
        // interrupt arrives for this CPU.
        vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
        return;

      case hw::ExitReason::kExtInt:
        events_.hw_intr.Count(c);
        ProcessPendingIrqs(cpu_id);
        // Return to the scheduler: the unblocked driver thread may have
        // a higher-priority scheduling context.
        return;

      case hw::ExitReason::kRecall: {
        gs.recall_pending = false;
        events_.recall.Count(c);
        if (!DispatchVmEvent(vcpu, Event::kRecall, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        if (gs.halted) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;
      }

      case hw::ExitReason::kPageFault: {
        // Shadow paging: run the vTLB algorithm entirely inside the
        // kernel — no user-level IPC (§5.3).
        std::uint64_t gpa = 0;
        switch (VtlbFor(vcpu).Resolve(exit, &gpa)) {
          case Vtlb::Outcome::kFilled:
            events_.vtlb_fill.Count(c, exit.gva);
            break;
          case Vtlb::Outcome::kGuestFault:
            events_.guest_pf.Count(c, exit.gva);
            gs.cr2 = exit.gva;
            if (!engine.InjectEvent(gs, hw::kVectorPageFault)) {
              DispatchVmEvent(vcpu, Event::kError, exit);
              return;
            }
            break;
          case Vtlb::Outcome::kHostFault: {
            hw::VmExit mmio = exit;
            mmio.gpa = gpa;
            events_.mmio.Count(c, gpa);
            if (!DispatchVmEvent(vcpu, Event::kMmio, mmio)) {
              vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
              return;
            }
            break;
          }
          case Vtlb::Outcome::kNoMem:
            // The VM's kernel-memory quota is exhausted and eviction found
            // nothing to reclaim: surface the failure to the VMM and park
            // the vCPU; a Recall retries once the monitor frees resources.
            events_.vm_error.Count(c);
            DispatchVmEvent(vcpu, Event::kError, exit);
            vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
            return;
        }
        break;
      }

      case hw::ExitReason::kEptViolation:
        events_.mmio.Count(c, exit.gpa);
        if (!DispatchVmEvent(vcpu, Event::kMmio, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kPio:
        events_.pio.Count(c, exit.port);
        if (!DispatchVmEvent(vcpu, Event::kPio, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kCpuid:
        events_.cpuid.Count(c);
        if (!DispatchVmEvent(vcpu, Event::kCpuid, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kMovCr:
        events_.mov_cr.Count(c, exit.qual);
        if (ctl.mode == hw::TranslationMode::kShadow) {
          VtlbFor(vcpu).HandleMovCr3(exit.qual);
          gs.rip += hw::isa::kInsnSize;  // Emulated: skip the instruction.
        } else if (!DispatchVmEvent(vcpu, Event::kMovCr, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kInvlpg:
        events_.invlpg.Count(c, exit.gva);
        if (ctl.mode == hw::TranslationMode::kShadow) {
          VtlbFor(vcpu).HandleInvlpg(exit.gva);
          // Sibling vCPUs on other cores cache the same guest mapping in
          // their own shadow contexts; invalidate them via shootdown.
          ShootdownVtlb(vcpu, exit.gva);
          gs.rip += hw::isa::kInsnSize;  // Emulated: skip the instruction.
        } else if (!DispatchVmEvent(vcpu, Event::kInvlpg, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kIntrWindow:
        events_.intr_window.Count(c);
        if (!DispatchVmEvent(vcpu, Event::kIntrWindow, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kVmcall:
        events_.vmcall.Count(c, exit.hypercall);
        if (!DispatchVmEvent(vcpu, Event::kVmcall, exit)) {
          vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
          return;
        }
        break;

      case hw::ExitReason::kError:
      case hw::ExitReason::kNone:
        events_.vm_error.Count(c);
        DispatchVmEvent(vcpu, Event::kError, exit);
        // Unrecoverable: park the virtual CPU.
        vcpu->set_block_state(Ec::BlockState::kBlockedHalt);
        return;
    }

    if (c.cycles() - start >= budget) {
      return;
    }
  }
}

}  // namespace nova::hv
