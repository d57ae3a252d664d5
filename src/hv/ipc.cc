// Portal IPC: call/reply with scheduling-context donation (§5.2).
//
// A call looks up the portal capability, traverses the portal into the
// handler execution context, copies the message words between UTCBs and —
// because the caller donates its scheduling context — runs the handler
// immediately on the caller's time slice. The handler's return is the
// reply; its UTCB contents travel back to the caller.
#include "src/hv/kernel.h"

namespace nova::hv {

void Hypervisor::TransferWords(Utcb& from, Utcb& to, std::uint32_t cpu_id) {
  const std::uint32_t n = std::min(from.untyped, kUtcbWords);
  to.untyped = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    to.words[i] = from.words[i];
  }
  Charge(cpu_id, static_cast<sim::Cycles>(n) * cpu(cpu_id).model().word_copy);
}

Status Hypervisor::ApplyTypedItems(Pd* sender, Pd* receiver, Utcb& msg) {
  for (std::uint32_t i = 0; i < std::min(msg.num_typed, kUtcbTypedItems); ++i) {
    TypedItem item = msg.typed[i];
    // The receiver only accepts delegations into its declared window (§6).
    const Crd& window = msg.recv_window;
    if (window.kind != item.crd.kind) {
      return Status::kBadParameter;
    }
    if (item.crd.kind == CrdKind::kObj && item.hotspot == ~0ull) {
      item.hotspot = window.base;  // Receiver-chosen capability slot.
    }
    if (item.hotspot < window.base ||
        item.hotspot + item.crd.count() > window.base + window.count()) {
      return Status::kBadParameter;
    }
    // Reuse the delegation machinery; the sender's own capability space
    // anchors the transfer. A dedicated self-capability for the receiver
    // is synthesized on the fly.
    const CapSel tmp_sel = sender->caps().FindFree(kSelFirstFree);
    if (tmp_sel == kInvalidSel) {
      return Status::kOverflow;
    }
    // Install a temporary non-delegable PD capability for the receiver in
    // the sender's space so Delegate() can resolve it.
    Status s = Status::kSuccess;
    {
      auto receiver_ref = std::static_pointer_cast<Pd>(
          receiver == root_pd_.get() ? root_pd_ : nullptr);
      if (receiver_ref == nullptr) {
        // Look the receiver up via its own self-capability.
        receiver_ref = std::static_pointer_cast<Pd>(
            receiver->caps().LookupRef(kSelOwnPd));
      }
      if (receiver_ref == nullptr) {
        return Status::kBadCapability;
      }
      (void)sender->caps().Insert(tmp_sel, Capability{receiver_ref, 0});
      s = Delegate(sender, tmp_sel, item.crd, item.hotspot);
      (void)sender->caps().Remove(tmp_sel);
    }
    if (!Ok(s)) {
      return s;
    }
  }
  return Status::kSuccess;
}

Status Hypervisor::Call(Ec* caller_ec, CapSel pt_sel) {
  const std::uint32_t cpu_id = caller_ec->cpu();
  // sysenter path.
  Charge(cpu_id, cpu(cpu_id).model().syscall_entry);
  Charge(cpu_id, costs_.hypercall_dispatch);

  auto pt = LookupCharged<Pt>(&caller_ec->pd(), pt_sel, ObjType::kPt, perm::kCall,
                              cpu_id);
  if (pt == nullptr) {
    Charge(cpu_id, cpu(cpu_id).model().syscall_exit);
    return Status::kBadCapability;
  }
  const Status s = DoCall(caller_ec, pt.get());
  Charge(cpu_id, cpu(cpu_id).model().syscall_exit);
  return s;
}

Status Hypervisor::DoCall(Ec* caller_ec, Pt* portal) {
  const std::uint32_t cpu_id = caller_ec->cpu();
  Ec& handler = portal->handler();
  // A portal whose handler lives on another core is reached by xcall: the
  // caller's scheduling context is handed off to the handler's home core
  // (Hedron's helping/migration semantics) and the caller resumes when
  // the reply IPI lands. `run_cpu` is where the handler executes and
  // where its work is charged.
  const std::uint32_t run_cpu = handler.cpu();
  const bool xcall = run_cpu != cpu_id;
  if (handler.busy()) {
    return Status::kBusy;  // One in-flight call per handler EC.
  }
  if (handler.dead() || handler.pd().dead()) {
    return Status::kAbort;  // The service's domain has been torn down.
  }

  // "IPC Call" span: portal traversal through reply, ended on every exit
  // path (including typed-item transfer errors) by the scope guard.
  const bool cross_as = &handler.pd() != &caller_ec->pd();
  const auto ipc_span =
      events_.ipc_call.Span(cpu(cpu_id), portal->id(), cross_as ? 1 : 0);

  // The caller blocks until the remote side replies: on every exit path,
  // pull its clock up to the handler core's completion time.
  struct ResumeGuard {
    Hypervisor* hv;
    std::uint32_t caller_cpu, run_cpu;
    bool active;
    ~ResumeGuard() {
      if (active) {
        hv->cpu(caller_cpu).AdvanceToPs(hv->cpu(run_cpu).NowPs());
      }
    }
  } resume{this, cpu_id, run_cpu, xcall};

  if (!xcall) {
    return TraversePortal(caller_ec, portal);
  }
  ChargeLock(xcall_lock_, cpu_id);
  Charge(cpu_id, costs_.xcall_send);
  cpu(run_cpu).AdvanceToPs(cpu(cpu_id).NowPs());  // IPI flight.
  // "IPC Xcall" span on the handler's core: IPI receipt through reply.
  const auto xcall_span =
      events_.ipc_xcall.Span(cpu(run_cpu), portal->id(), cpu_id);
  Charge(run_cpu, costs_.xcall_receive);
  return TraversePortal(caller_ec, portal);
}

Status Hypervisor::TraversePortal(Ec* caller_ec, Pt* portal) {
  Ec& handler = portal->handler();
  const std::uint32_t run_cpu = handler.cpu();
  const bool cross_as = &handler.pd() != &caller_ec->pd();
  const hw::CpuModel& model = cpu(run_cpu).model();

  // Portal traversal + switch to the handler, donating the caller's SC.
  Charge(run_cpu, costs_.portal_traversal + costs_.context_switch);
  if (cross_as) {
    // Host address spaces carry no TLB tags (§9 discusses exactly this):
    // the page-table root write flushes, and hot entries are re-walked.
    Charge(run_cpu, costs_.addr_space_switch +
                       costs_.ipc_refill_entries * model.tlb_refill_entry);
    cpu(run_cpu).tlb().FlushTag(hw::kHostTag);
  }
  TransferWords(caller_ec->utcb(), handler.utcb(), run_cpu);
  if (caller_ec->utcb().num_typed > 0) {
    // Delegations ride on the message and are consumed by the kernel; the
    // receiver window was declared by the handler ahead of time.
    Utcb msg = caller_ec->utcb();
    msg.recv_window = handler.utcb().recv_window;
    const Status s = ApplyTypedItems(&caller_ec->pd(), &handler.pd(), msg);
    caller_ec->utcb().num_typed = 0;
    if (!Ok(s)) {
      return s;
    }
  }
  handler.utcb().num_typed = 0;  // The handler composes its own reply items.

  // The handler runs on the donated scheduling context; the kernel creates
  // a reply capability and switches directly without invoking the
  // scheduler. Our synchronous model realizes donation exactly: the
  // handler executes here, charging its home CPU.
  handler.set_busy(true);
  handler.handler()(portal->id());
  handler.set_busy(false);

  // Reply: return the donated SC and transfer the reply message.
  Charge(run_cpu, costs_.reply_path + costs_.context_switch);
  if (cross_as) {
    Charge(run_cpu, costs_.addr_space_switch +
                       costs_.ipc_refill_entries * model.tlb_refill_entry);
    cpu(run_cpu).tlb().FlushTag(hw::kHostTag);
  }
  TransferWords(handler.utcb(), caller_ec->utcb(), run_cpu);
  if (handler.utcb().num_typed > 0) {
    Utcb msg = handler.utcb();
    msg.recv_window = caller_ec->utcb().recv_window;
    const Status s = ApplyTypedItems(&handler.pd(), &caller_ec->pd(), msg);
    if (!Ok(s)) {
      return s;
    }
    handler.utcb().num_typed = 0;
  }
  return Status::kSuccess;
}

}  // namespace nova::hv
