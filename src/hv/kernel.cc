#include "src/hv/kernel.h"

#include <algorithm>

#include "src/sim/log.h"

namespace nova::hv {

namespace mtd {

int WordCount(Mtd m) {
  int words = 0;
  if (m & kGprAcdb) words += 4;
  if (m & kGprBsd) words += 4;
  if (m & kRip) words += 2;
  if (m & kRflags) words += 1;
  if (m & kCr) words += 3;
  if (m & kQual) words += 3;
  if (m & kInj) words += 2;
  if (m & kSta) words += 1;
  if (m & kTsc) words += 1;
  return words;
}

int FieldCount(Mtd m) {
  // VMCS fields touched: one read/write per architectural field.
  return WordCount(m);
}

}  // namespace mtd

// Nothing emits "vTLB Resolve", but its id sits just before the
// exit-reason names, and golden digests fold every id.
std::array<std::uint16_t, hw::kNumExitReasons>
Hypervisor::Events::InternExitNames(sim::Tracer& t) {
  (void)t.Intern("vTLB Resolve");
  std::array<std::uint16_t, hw::kNumExitReasons> ids{};
  for (int i = 0; i < hw::kNumExitReasons; ++i) {
    ids[static_cast<std::size_t>(i)] = t.Intern(
        std::string("exit:") + hw::ExitReasonName(static_cast<hw::ExitReason>(i)));
  }
  return ids;
}

Hypervisor::Hypervisor(hw::Machine* machine, HvCosts costs)
    : machine_(machine), costs_(costs) {
  host_paging_mode_ = machine_->cpu(0).model().host_paging;
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    engines_.push_back(std::make_unique<hw::VmEngine>(
        &machine_->cpu(i), &machine_->mem(), &machine_->bus(), &machine_->irq()));
  }
  // nova-lint: allow(per-cpu-state) — boot-time sizing, no core yet.
  cpu_states_.resize(machine_->num_cpus());
  // SmDown deadline events are tagged (ec oid, sm oid); the factory
  // resolves both against the creation-order registry, which on restore
  // is the twin's. The closure holds shared refs, so both objects outlive
  // a pending deadline.
  event_owner_ = machine_->events().RegisterOwner(
      sim::EventQueue::OwnerToken("hv.kernel"),
      [this](const sim::EventTag& tag) -> sim::EventQueue::Callback {
        auto ec = RefAs<Ec>(ObjectByOid(tag.a), ObjType::kEc);
        auto sm = RefAs<Sm>(ObjectByOid(tag.b), ObjType::kSm);
        if (tag.op != 1 || ec == nullptr || sm == nullptr) {
          return nullptr;
        }
        return [this, ec, sm] { SmDeadlineExpired(ec, sm); };
      });
}

void Hypervisor::RegisterObject(const ObjRef& obj) {
  obj->set_oid(objects_.size());
  objects_.push_back(ObjSlot{obj, obj->type()});
}

Hypervisor::~Hypervisor() {
  // The kernel object graph is cyclic — a domain's capability space holds
  // its own handle and its ECs, and each EC holds its domain — so it is
  // torn down here. vTLBs go first, while the pool and tag allocator they
  // hand frames and tags back to still exist; emptying every capability
  // space then lets the remaining references unwind.
  std::vector<ObjRef> live;
  for (const ObjSlot& slot : objects_) {
    if (ObjRef obj = slot.ref.lock(); obj != nullptr) {
      live.push_back(std::move(obj));
    }
  }
  for (const ObjRef& obj : live) {
    if (obj->type() == ObjType::kEc) {
      static_cast<Ec&>(*obj).set_vtlb(nullptr);
    }
  }
  for (const ObjRef& obj : live) {
    if (obj->type() == ObjType::kPd) {
      static_cast<Pd&>(*obj).caps().Clear();
    }
  }
}

hw::PhysAddr Hypervisor::PoolAlloc() {
  if (!pool_free_.empty()) {
    const hw::PhysAddr frame = pool_free_.back();
    pool_free_.pop_back();
    (void)machine_->mem().Zero(frame, hw::kPageSize);
    return frame;
  }
  if (pool_next_ + hw::kPageSize > kernel_reserve_) {
    return 0;  // Kernel pool exhausted.
  }
  const hw::PhysAddr frame = pool_next_;
  pool_next_ += hw::kPageSize;
  return frame;
}

void Hypervisor::PoolFree(hw::PhysAddr frame) { pool_free_.push_back(frame); }

hw::PhysAddr Hypervisor::AllocFrameFor(Pd* pd) {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kAllocFail, pd->name())) {
    return 0;
  }
  if (!pd->ChargeKmem(1)) {
    return 0;
  }
  const hw::PhysAddr frame = PoolAlloc();
  if (frame == 0) {
    pd->CreditKmem(1);
  }
  return frame;
}

void Hypervisor::FreeFrameFor(Pd* pd, hw::PhysAddr frame) {
  pd->CreditKmem(1);
  PoolFree(frame);
}

KmemCharge::~KmemCharge() {
  if (pd_ != nullptr) {
    pd_->CreditKmem(frames_);
  }
}

KmemCharge Hypervisor::ChargeObjectFrames(const std::shared_ptr<Pd>& pd,
                                          std::uint64_t frames) {
  const bool faulted =
      fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kAllocFail, pd->name());
  if (faulted || !pd->ChargeKmem(frames)) {
    return {};
  }
  return KmemCharge(pd, frames);
}

Status Hypervisor::Publish(Pd* caller, CapSel dst_sel, const ObjRef& obj,
                           KmemCharge charge) {
  const Status s = InstallCap(caller, dst_sel, obj, perm::kAll);
  if (Ok(s)) {
    obj->set_kmem_charge(std::move(charge));
    RegisterObject(obj);
  }
  return s;
}

std::shared_ptr<Pd> Hypervisor::SelfRef(Pd* caller) {
  if (caller == root_pd_.get()) {
    return root_pd_;
  }
  auto self = RefAs<Pd>(caller->caps().LookupRef(kSelOwnPd), ObjType::kPd);
  return self != nullptr ? self : root_pd_;
}

hw::PhysAddr Hypervisor::AllocFrame() {
  return root_pd_ != nullptr ? AllocFrameFor(root_pd_.get()) : PoolAlloc();
}

void Hypervisor::FreeFrame(hw::PhysAddr frame) {
  if (root_pd_ != nullptr) {
    FreeFrameFor(root_pd_.get(), frame);
  } else {
    PoolFree(frame);
  }
}

std::shared_ptr<Pd> Hypervisor::MakePd(const std::string& name, bool is_vm,
                                       std::shared_ptr<Pd> donor,
                                       std::uint64_t quota_frames) {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kAllocFail, name)) {
    return nullptr;
  }
  const hw::PhysAddr root = PoolAlloc();
  if (root == 0) {
    return nullptr;
  }
  auto pd = std::make_shared<Pd>(name, is_vm, &machine_->mem(), host_paging_mode_,
                                 root, this);
  pd->set_kmem_donor(std::move(donor));
  if (quota_frames != KmemQuota::kUnlimited) {
    pd->kmem().SetLimit(quota_frames);
  }
  // The page-table root frame is the domain's first charge.
  if (!pd->ChargeKmem(1)) {
    PoolFree(root);
    return nullptr;
  }
  if (is_vm) {
    pd->set_vm_tag(tlb_tags_.Allocate());
  }
  RegisterObject(pd);
  return pd;
}

void Hypervisor::FreeDomainMemory(Pd* pd) {
  pd->mem_space().table().FreeTables(
      [this, pd](hw::PhysAddr frame) { FreeFrameFor(pd, frame); });
  pd->CreditKmem(pd->caps().committed_chunks());
}

Vtlb& Hypervisor::VtlbFor(Ec* vcpu) {
  if (vcpu->vtlb() == nullptr) {
    Vtlb::Env env;
    env.cpu = &cpu(vcpu->cpu());
    env.mem = &machine_->mem();
    env.host = &vcpu->pd().mem_space().table();
    env.gs = &vcpu->gstate();
    env.ctl = &vcpu->ctl();
    env.pd = &vcpu->pd();
    env.pd_root = vcpu->pd().mem_space().root();
    env.costs = &costs_;
    env.alloc = [this, pd = &vcpu->pd()] { return AllocFrameFor(pd); };
    env.free = [this, pd = &vcpu->pd()](hw::PhysAddr f) { FreeFrameFor(pd, f); };
    env.tags = &tlb_tags_;
    env.stats = &stats_;
    env.tracer = tracer_;
    vcpu->set_vtlb(std::make_shared<Vtlb>(std::move(env), vtlb_policy_));
  }
  return *vcpu->vtlb();
}

void Hypervisor::DropShadowContexts(Pd* pd) {
  for (auto it = vcpus_.begin(); it != vcpus_.end();) {
    auto vcpu = it->lock();
    if (vcpu == nullptr) {
      it = vcpus_.erase(it);
      continue;
    }
    if (&vcpu->pd() == pd && vcpu->vtlb() != nullptr) {
      vcpu->vtlb()->DropAllContexts();
    }
    ++it;
  }
}

Pd* Hypervisor::Boot(std::uint64_t kernel_reserve) {
  kernel_reserve_ = kernel_reserve;
  pool_next_ = hw::kPageSize;  // Frame 0 stays unused: 0 means "no frame".
  // The hypervisor shields its own memory from device DMA (§4.2).
  machine_->iommu().ProtectRange(0, kernel_reserve_);

  root_pd_ = MakePd("root", /*is_vm=*/false, nullptr, KmemQuota::kUnlimited);
  (void)InstallCap(root_pd_.get(), kSelOwnPd, root_pd_, perm::kAll);
  // Root's account is bounded by the physical pool itself (frame 0 stays
  // reserved); every pass-through descendant ultimately charges here.
  root_pd_->kmem().SetLimit(kernel_reserve_ / hw::kPageSize - 1);

  // The root partition manager receives capabilities for all remaining
  // memory regions, I/O ports and interrupts (§6).
  const std::uint64_t first_page = kernel_reserve_ >> hw::kPageShift;
  const std::uint64_t last_page = machine_->mem().size() >> hw::kPageShift;
  Mdb& mdb = mdb_.Get(SerialPhase::kBoot);
  mdb.CreateRoot(root_pd_.get(), CrdKind::kMem, first_page,
                 last_page - first_page, perm::kRwx);
  mdb.CreateRoot(root_pd_.get(), CrdKind::kIo, 0, 65536, perm::kAll);
  root_pd_->io_space().Grant(0, 65536);
  return root_pd_.get();
}

Status Hypervisor::InstallCap(Pd* target, CapSel sel, ObjRef obj, std::uint8_t perms) {
  const Status s = target->caps().Insert(sel, Capability{std::move(obj), perms});
  if (Ok(s)) {
    // A freshly created capability is a delegation root: the creator can
    // hand copies (with equal or reduced permissions) to other domains.
    // Creation hypercalls run serially on the calling core; charging
    // mdb_lock_ here would change the contention model and the digests.
    mdb_.Get(SerialPhase::kUncharged)
        .CreateRoot(target, CrdKind::kObj, sel, 1, perms);
  }
  return s;
}

Status Hypervisor::CreatePd(Pd* caller, CapSel dst_sel, const std::string& name,
                            bool is_vm, Pd** out, std::uint64_t quota_frames) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  std::shared_ptr<Pd> donor = SelfRef(caller);
  // An explicit quota is carved out of the creator's nearest bounded
  // account up front and handed back if creation fails below.
  Pd* grantor = nullptr;
  if (quota_frames != KmemQuota::kUnlimited) {
    grantor = caller;
    while (!grantor->kmem().bounded() && grantor->kmem_donor() != nullptr) {
      grantor = grantor->kmem_donor().get();
    }
    if (!grantor->kmem().bounded()) {
      grantor = nullptr;
    } else if (grantor->kmem().available() < quota_frames) {
      return Status::kNoMem;
    } else {
      grantor->kmem().ShrinkLimit(quota_frames);
    }
  }
  auto unwind = [&](const std::shared_ptr<Pd>& pd) {
    if (pd != nullptr) {
      pd->MarkDead();
      // Create-failure unwind: the domain was never visible to other cores.
      mdb_.Get(SerialPhase::kUnpublishedUnwind)
          .DropDomain(pd.get(), [](const MdbNode&) {});
      FreeDomainMemory(pd.get());
      if (pd->is_vm() && pd->vm_tag() != hw::kHostTag) {
        tlb_tags_.Release(pd->vm_tag());
        pd->set_vm_tag(hw::kHostTag);
      }
    }
    if (grantor != nullptr) {
      grantor->kmem().GrowLimit(quota_frames);
    }
  };
  auto pd = MakePd(name, is_vm, donor, quota_frames);
  if (pd == nullptr) {
    unwind(nullptr);
    return Status::kNoMem;
  }
  // The new domain's own (non-control) handle goes in first, so a failure
  // on either insert leaves no half-visible domain behind. The creator
  // obtains the control capability (it can destroy the domain).
  Status s = InstallCap(pd.get(), kSelOwnPd, pd, perm::kDelegate);
  if (!Ok(s)) {
    unwind(pd);
    return s;
  }
  s = InstallCap(caller, dst_sel, pd, perm::kAll);
  if (!Ok(s)) {
    unwind(pd);
    return s;
  }
  if (out != nullptr) {
    *out = pd.get();
  }
  return Status::kSuccess;
}

Status Hypervisor::DestroyPd(Pd* caller, CapSel pd_sel) {
  Pd* pd = LookupCharged<Pd>(caller, pd_sel, ObjType::kPd, perm::kCtrl,
                             boot_cpu_for_step_);
  if (pd == nullptr) {
    return Status::kBadCapability;
  }
  if (pd == root_pd_.get()) {
    return Status::kDenied;
  }
  // Reclaim first, while the domain's kernel objects still exist: the
  // capability sweep below destroys any semaphore whose last reference is
  // a delegated cap, and a foreign waiter blocked on it must observe the
  // abort, not be stranded on a vanished object.
  pd->MarkDead();
  ReclaimPd(pd);
  // Withdraw everything this domain held and everything derived from it.
  // The per-node withdrawals below are best-effort by design: a range the
  // domain already unmapped itself is not an error during teardown.
  // Teardown of a dead domain runs serially on the calling core; charging
  // mdb_lock_ here would change the contention model and shift digests.
  Mdb& mdb = mdb_.Get(SerialPhase::kUncharged);
  mdb.DropDomain(pd, [this](const MdbNode& node) {
    if (node.pd->dead()) {
      return;  // A domain destroyed earlier: its spaces are already gone.
    }
    switch (node.kind) {
      case CrdKind::kMem:
        (void)node.pd->mem_space().Unmap(node.base, node.count);
        break;
      case CrdKind::kIo:
        (void)node.pd->io_space().Revoke(node.base, node.count);
        break;
      case CrdKind::kObj:
        for (std::uint64_t i = 0; i < node.count; ++i) {
          (void)node.pd->caps().Remove(static_cast<CapSel>(node.base + i));
        }
        break;
      case CrdKind::kNull:
        break;
    }
  });
  (void)caller->caps().Remove(pd_sel);
  return Status::kSuccess;
}

void Hypervisor::ReclaimPd(Pd* pd) {
  // Waiters from *other* domains blocked on a semaphore the dying domain
  // created observe the failure: their next down reports kAbort.
  for (auto it = sms_.begin(); it != sms_.end();) {
    auto sm = it->lock();
    if (sm == nullptr) {
      it = sms_.erase(it);
      continue;
    }
    if (sm->owner() == pd) {
      while (!sm->waiters().empty()) {
        auto waiter = sm->waiters().front();
        sm->waiters().pop_front();
        WakeSmWaiter(waiter.get(), Status::kAbort);
      }
      // ReclaimPd unbinds after the domain is dead and its ECs are off
      // the run queues; no remote delivery can race this.
      auto& gsi_sms = gsi_sms_.Get(SerialPhase::kTeardown);
      if (sm->bound_gsi_valid() && gsi_sms[sm->bound_gsi()] == sm) {
        gsi_sms[sm->bound_gsi()] = nullptr;
      }
      sm->MarkDead();
      sm->set_owner(nullptr);
    }
    ++it;
  }

  // The domain's execution contexts never run again: unlink them from
  // semaphore queues, run queues and halted lists.
  for (auto it = ecs_.begin(); it != ecs_.end();) {
    auto ec = it->lock();
    if (ec == nullptr) {
      it = ecs_.erase(it);
      continue;
    }
    if (&ec->pd() == pd) {
      ec->MarkDead();
      if (Sm* sm = ec->blocked_on(); sm != nullptr) {
        auto& q = sm->waiters();
        q.erase(std::remove_if(q.begin(), q.end(),
                               [&ec](const auto& p) { return p == ec; }),
                q.end());
        ec->set_blocked_on(nullptr);
      }
      if (ec->timeout_event() != 0) {
        machine_->events().Cancel(ec->timeout_event());
        ec->set_timeout_event(0);
      }
      UnscheduleEc(ec.get());
      if (ec->sc() != nullptr) {
        ec->sc()->MarkDead();
      }
    }
    ++it;
  }

  // Direct-interrupt routes into the domain's vCPUs go quiet. Serial
  // teardown: the dead domain's vCPUs can no longer take delivery.
  for (auto& route : gsi_direct_.Get(SerialPhase::kTeardown)) {
    if (route != nullptr && &route->pd() == pd) {
      route = nullptr;
    }
  }

  // Shadow-paging state: every cached context frame and hardware tag of
  // the domain's vCPUs goes back to the pool.
  DropShadowContexts(pd);

  // A dead driver domain must not be able to program DMA anymore.
  for (const std::uint16_t dev : pd->assigned_devices()) {
    machine_->iommu().DetachDevice(dev);
  }
  pd->assigned_devices().clear();

  // Release the domain's hardware TLB footprint and identity tag. Cores
  // that ran the dying VM's vCPUs are shot down before the tag recycles.
  if (pd->is_vm() && pd->vm_tag() != hw::kHostTag) {
    ShootdownRemotes(boot_cpu_for_step_, pd->cores_mask(), pd->vm_tag());
    pd->ClearCores();
    for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
      machine_->cpu(i).tlb().FlushTag(pd->vm_tag());
      engines_[i]->FlushNestedTlb(pd->vm_tag());
    }
    tlb_tags_.Release(pd->vm_tag());
    pd->set_vm_tag(hw::kHostTag);
  }

  // Finally the paging structures themselves: DropDomain zeroed the leaf
  // entries, but the radix-tree frames (and the root) are kernel pool
  // frames that must balance out — credited to the dying domain's own
  // account chain, not to root.
  FreeDomainMemory(pd);

  // A bounded domain's quota returns to the nearest live bounded ancestor
  // (the supervisor destroys a VMM's VM first, so a VM's quota flows
  // through the VMM back to root). Zero the limit afterwards so a second
  // pass can never return it twice.
  if (pd->kmem().bounded() && pd->kmem().limit() > 0) {
    Pd* heir = pd->kmem_donor().get();
    while (heir != nullptr && (heir->dead() || !heir->kmem().bounded())) {
      heir = heir->kmem_donor().get();
    }
    if (heir != nullptr) {
      heir->kmem().GrowLimit(pd->kmem().limit());
    }
    pd->kmem().SetLimit(0);
  }
}

Status Hypervisor::CreateEcLocal(Pd* caller, CapSel dst_sel, CapSel pd_sel,
                                 std::uint32_t cpu_id, Ec::Handler handler, Ec** out) {
  return CreateEc(caller, dst_sel, pd_sel, cpu_id, Ec::Kind::kLocal,
                  std::move(handler), nullptr, out);
}

Status Hypervisor::CreateEcGlobal(Pd* caller, CapSel dst_sel, CapSel pd_sel,
                                  std::uint32_t cpu_id, Ec::StepFn step, Ec** out) {
  return CreateEc(caller, dst_sel, pd_sel, cpu_id, Ec::Kind::kGlobal, nullptr,
                  std::move(step), out);
}

Status Hypervisor::CreateEc(Pd* caller, CapSel dst_sel, CapSel pd_sel,
                            std::uint32_t cpu_id, Ec::Kind kind,
                            Ec::Handler handler, Ec::StepFn step, Ec** out) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  if (cpu_id >= machine_->num_cpus()) {
    return Status::kBadCpu;
  }
  Charge(boot_cpu_for_step_, costs_.cap_lookup);
  auto pd = RefAs<Pd>(caller->caps().LookupRef(pd_sel), ObjType::kPd);
  if (pd == nullptr) {
    return Status::kBadCapability;
  }
  KmemCharge utcb = ChargeObjectFrames(pd, 1);
  if (!utcb) {
    return Status::kNoMem;
  }
  auto ec = std::make_shared<Ec>(kind, pd, cpu_id);
  ec->set_handler(std::move(handler));
  ec->set_step_fn(std::move(step));
  const Status s = Publish(caller, dst_sel, ec, std::move(utcb));
  if (!Ok(s)) {
    return s;
  }
  ecs_.push_back(ec);
  if (out != nullptr) {
    *out = ec.get();
  }
  return Status::kSuccess;
}

Status Hypervisor::CreateVcpu(Pd* caller, CapSel dst_sel, CapSel vm_pd_sel,
                              std::uint32_t cpu_id, CapSel evt_base, Ec** out) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  if (cpu_id >= machine_->num_cpus()) {
    return Status::kBadCpu;
  }
  Charge(boot_cpu_for_step_, costs_.cap_lookup);
  auto pd = RefAs<Pd>(caller->caps().LookupRef(vm_pd_sel), ObjType::kPd);
  if (pd == nullptr) {
    return Status::kBadCapability;
  }
  if (!pd->is_vm()) {
    return Status::kBadParameter;
  }
  KmemCharge utcb_vmcs = ChargeObjectFrames(pd, 2);
  if (!utcb_vmcs) {
    return Status::kNoMem;
  }
  auto ec = std::make_shared<Ec>(Ec::Kind::kVcpu, pd, cpu_id);
  ec->set_evt_base(evt_base);
  // Default controls: full virtualization with nested paging on the VM's
  // host page table. The VMM reconfigures via ec->ctl() before first run.
  hw::VmControls& ctl = ec->ctl();
  ctl.mode = hw::TranslationMode::kNested;
  ctl.nested_format = host_paging_mode_;
  ctl.nested_root = pd->mem_space().root();
  ctl.tag = pd->vm_tag();
  ctl.base_tag = pd->vm_tag();
  ctl.intercept_cpuid = true;
  ctl.intercept_hlt = true;
  ctl.intercept_vmcall = true;
  ctl.io_passthrough = &pd->io_space().bitmap();
  const Status s = Publish(caller, dst_sel, ec, std::move(utcb_vmcs));
  if (!Ok(s)) {
    return s;
  }
  vcpus_.push_back(ec);
  ecs_.push_back(ec);
  if (out != nullptr) {
    *out = ec.get();
  }
  return Status::kSuccess;
}

Status Hypervisor::CreateSc(Pd* caller, CapSel dst_sel, CapSel ec_sel,
                            std::uint8_t prio, sim::Cycles quantum) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  Charge(boot_cpu_for_step_, costs_.cap_lookup);
  auto ec = RefAs<Ec>(caller->caps().LookupRef(ec_sel), ObjType::kEc);
  if (ec == nullptr) {
    return Status::kBadCapability;
  }
  if (ec->kind() == Ec::Kind::kLocal) {
    return Status::kBadParameter;  // Handler ECs run on donated time only.
  }
  if (ec->sc() != nullptr) {
    return Status::kBusy;
  }
  if (quantum == 0) {
    return Status::kBadParameter;
  }
  KmemCharge charge = ChargeObjectFrames(ec->pd_ref(), 1);
  if (!charge) {
    return Status::kNoMem;
  }
  auto sc = std::make_shared<Sc>(ec, prio, quantum);
  ec->set_sc(sc.get());
  const Status s = Publish(caller, dst_sel, sc, std::move(charge));
  if (!Ok(s)) {
    ec->set_sc(nullptr);
    return s;
  }
  EnqueueSc(sc.get());
  return Status::kSuccess;
}

Status Hypervisor::CreatePt(Pd* caller, CapSel dst_sel, CapSel handler_ec_sel,
                            Mtd m, std::uint64_t id) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  Charge(boot_cpu_for_step_, costs_.cap_lookup);
  auto ec = RefAs<Ec>(caller->caps().LookupRef(handler_ec_sel), ObjType::kEc);
  if (ec == nullptr) {
    return Status::kBadCapability;
  }
  if (ec->kind() != Ec::Kind::kLocal) {
    return Status::kBadParameter;
  }
  KmemCharge charge = ChargeObjectFrames(ec->pd_ref(), 1);
  if (!charge) {
    return Status::kNoMem;
  }
  return Publish(caller, dst_sel, std::make_shared<Pt>(ec, m, id),
                 std::move(charge));
}

Status Hypervisor::PtCtrlMtd(Pd* caller, CapSel pt_sel, Mtd m) {
  Pt* pt = LookupCharged<Pt>(caller, pt_sel, ObjType::kPt, perm::kCtrl,
                             boot_cpu_for_step_);
  if (pt == nullptr) {
    return Status::kBadCapability;
  }
  pt->set_mtd(m);
  return Status::kSuccess;
}

Status Hypervisor::CreateSm(Pd* caller, CapSel dst_sel, std::uint64_t initial) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  KmemCharge charge = ChargeObjectFrames(SelfRef(caller), 1);
  if (!charge) {
    return Status::kNoMem;
  }
  auto sm = std::make_shared<Sm>(initial);
  sm->set_owner(caller);
  const Status s = Publish(caller, dst_sel, sm, std::move(charge));
  if (Ok(s)) {
    sms_.push_back(sm);
  }
  return s;
}

// --- Semaphores -----------------------------------------------------------

Status Hypervisor::SmUp(Pd* caller, CapSel sm_sel) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch + costs_.sm_op);
  Sm* sm = LookupCharged<Sm>(caller, sm_sel, ObjType::kSm, perm::kSmUp,
                             boot_cpu_for_step_);
  if (sm == nullptr) {
    return Status::kBadCapability;
  }
  // Increment, then wake the first waiter; the woken thread re-executes
  // its down and consumes the count.
  sm->set_counter(sm->counter() + 1);
  if (!sm->waiters().empty()) {
    auto ec = sm->waiters().front();
    sm->waiters().pop_front();
    WakeSmWaiter(ec.get(), Status::kSuccess);
  }
  return Status::kSuccess;
}

void Hypervisor::SmDeadlineExpired(std::shared_ptr<Ec> ec_ref,
                                   std::shared_ptr<Sm> sm_ref) {
  Ec* ec = ec_ref.get();
  // Guard: the wait may have ended (or moved to another semaphore) between
  // scheduling and expiry.
  if (ec->dead() || ec->block_state() != Ec::BlockState::kBlockedSm ||
      ec->blocked_on() != sm_ref.get()) {
    return;
  }
  auto& q = sm_ref->waiters();
  q.erase(std::remove_if(q.begin(), q.end(),
                         [&ec_ref](const auto& p) { return p == ec_ref; }),
          q.end());
  ec->set_timeout_event(0);
  WakeSmWaiter(ec, Status::kTimeout);
}

void Hypervisor::WakeSmWaiter(Ec* ec, Status status) {
  ec->set_blocked_on(nullptr);
  if (ec->timeout_event() != 0) {
    machine_->events().Cancel(ec->timeout_event());
    ec->set_timeout_event(0);
  }
  ec->set_wake_status(status);
  ec->set_block_state(Ec::BlockState::kRunnable);
  if (ec->sc() != nullptr && !ec->sc()->queued()) {
    EnqueueSc(ec->sc());
  }
}

void Hypervisor::EnqueueSc(Sc* sc, bool at_head) {
  // Per-core ready queues are contention-free for their own core; only a
  // cross-core wakeup (an SC pushed into a remote core's queue) touches a
  // lock another core may hold.
  if (boot_cpu_for_step_ != sc->cpu()) {
    ChargeLock(sched_lock_, boot_cpu_for_step_);
  }
  cpu_state(sc->cpu()).Enqueue(sc, at_head);
}

void Hypervisor::UnscheduleEc(Ec* ec) {
  CpuState& state = cpu_state(ec->cpu());
  if (ec->sc() != nullptr && ec->sc()->queued()) {
    // Absent is fine: the queued() flag can be stale during teardown.
    (void)state.Remove(ec->sc());
  }
  auto& halted = state.halted();
  halted.erase(std::remove_if(halted.begin(), halted.end(),
                              [ec](const auto& p) { return p.get() == ec; }),
               halted.end());
}

Hypervisor::DownResult Hypervisor::SmDown(Ec* caller_ec, CapSel sm_sel,
                                          bool unmask_gsi,
                                          sim::PicoSeconds deadline_ps) {
  Charge(caller_ec->cpu(), costs_.hypercall_dispatch + costs_.sm_op);
  // A blocked wait that ended abnormally reports its outcome on re-entry
  // (the woken thread re-executes its down).
  if (caller_ec->wake_status() != Status::kSuccess) {
    const Status why = caller_ec->wake_status();
    caller_ec->set_wake_status(Status::kSuccess);
    return why == Status::kTimeout ? DownResult::kTimeout : DownResult::kAborted;
  }
  Sm* sm = LookupCharged<Sm>(&caller_ec->pd(), sm_sel, ObjType::kSm, perm::kSmDown,
                             caller_ec->cpu());
  if (sm == nullptr) {
    return DownResult::kError;
  }
  if (sm->dead()) {
    return DownResult::kAborted;  // The semaphore's domain is gone.
  }
  if (unmask_gsi && sm->bound_gsi_valid()) {
    machine_->irq().Unmask(sm->bound_gsi());
    ProcessPendingIrqs(caller_ec->cpu());  // A latched edge may fire now.
  }
  if (sm->counter() > 0) {
    sm->set_counter(sm->counter() - 1);
    return DownResult::kAcquired;
  }
  if (caller_ec->kind() != Ec::Kind::kGlobal || caller_ec->sc() == nullptr) {
    return DownResult::kError;  // Only threads with their own SC may block.
  }
  caller_ec->set_block_state(Ec::BlockState::kBlockedSm);
  caller_ec->set_blocked_on(sm);
  auto ec_ref = caller_ec->sc()->ec_ref();
  sm->waiters().push_back(ec_ref);
  if (deadline_ps != 0) {
    // SmDeadlineExpired re-checks the wait is still the same one before
    // expiring it.
    const auto id = machine_->events().ScheduleAt(
        deadline_ps, sim::EventTag{sim::EventQueue::OwnerToken("hv.kernel"), 1,
                                   ec_ref->oid(), sm->oid()});
    caller_ec->set_timeout_event(id);
  }
  return DownResult::kBlocked;
}

// --- Delegation / revocation ----------------------------------------------

Status Hypervisor::Delegate(Pd* caller, CapSel dst_pd_sel, const Crd& src,
                            std::uint64_t hotspot, std::uint8_t perms_mask,
                            bool large) {
  const std::uint32_t cpu_id = boot_cpu_for_step_;
  Charge(cpu_id, costs_.hypercall_dispatch);
  Mdb& mdb = mdb_.Get(ChargeLock(mdb_lock_, cpu_id));
  Pd* dst = LookupCharged<Pd>(caller, dst_pd_sel, ObjType::kPd, 0, cpu_id);
  if (dst == nullptr) {
    return Status::kBadCapability;
  }
  if (src.kind == CrdKind::kNull) {
    return Status::kBadParameter;
  }
  MdbNode* node = mdb.Find(caller, src.kind, src.base, src.count());
  if (node == nullptr) {
    return Status::kDenied;  // Caller does not hold the resource.
  }
  const std::uint8_t eff = node->perms & src.perms & perms_mask;
  if (eff == 0) {
    return Status::kDenied;
  }
  Charge(cpu_id, costs_.mdb_node);

  switch (src.kind) {
    case CrdKind::kMem: {
      if (caller->is_vm()) {
        return Status::kDenied;  // VMs cannot originate delegations.
      }
      // For user domains the memory space is identity: the page index is
      // the host frame number, so the chain is anchored at physical RAM.
      const Status s = dst->mem_space().Map(hotspot, src.base, src.count(), eff, large);
      if (!Ok(s)) {
        return s;
      }
      const std::uint64_t units =
          large ? src.count() / (hw::LargePageSize(host_paging_mode_) / hw::kPageSize)
                : src.count();
      Charge(cpu_id, costs_.map_page * units);
      break;
    }
    case CrdKind::kIo:
      dst->io_space().Grant(hotspot, src.count());
      Charge(cpu_id, costs_.map_page);
      break;
    case CrdKind::kObj: {
      for (std::uint64_t i = 0; i < src.count(); ++i) {
        const Capability* cap = caller->caps().Lookup(static_cast<CapSel>(src.base + i));
        if (cap == nullptr || (cap->perms & perm::kDelegate) == 0) {
          return Status::kBadCapability;
        }
        Capability narrowed = *cap;
        narrowed.perms &= eff;
        const Status s = dst->caps().Insert(static_cast<CapSel>(hotspot + i), narrowed);
        if (!Ok(s)) {
          return s;
        }
        Charge(cpu_id, costs_.cap_lookup);
      }
      break;
    }
    case CrdKind::kNull:
      break;
  }
  (void)mdb.Delegate(node, dst, hotspot, src.count(), eff, src.base);
  return Status::kSuccess;
}

Status Hypervisor::Revoke(Pd* caller, const Crd& crd, bool include_self) {
  const std::uint32_t cpu_id = boot_cpu_for_step_;
  Charge(cpu_id, costs_.hypercall_dispatch);
  Mdb& mdb = mdb_.Get(ChargeLock(mdb_lock_, cpu_id));
  bool touched_mem = false;
  // As with DestroyPd: per-node withdrawals during a revoke walk are
  // best-effort, since children may have dropped ranges on their own.
  (void)mdb.Revoke(caller, crd, include_self, [&](const MdbNode& node) {
    Charge(cpu_id, costs_.mdb_node);
    switch (node.kind) {
      case CrdKind::kMem:
        (void)node.pd->mem_space().Unmap(node.base, node.count);
        Charge(cpu_id, costs_.map_page * node.count);
        touched_mem = true;
        if (node.pd->is_vm()) {
          // Remote cores that ran this VM hold stale tagged translations:
          // IPI + flush + ack before the unmap is globally visible.
          ShootdownRemotes(cpu_id, node.pd->cores_mask(), node.pd->vm_tag());
          for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
            machine_->cpu(i).tlb().FlushTag(node.pd->vm_tag());
            engines_[i]->FlushNestedTlb(node.pd->vm_tag());
          }
          // Shadow-mode vCPUs may hold cached translations of the revoked
          // range in dormant contexts under their own tags.
          DropShadowContexts(node.pd);
        }
        break;
      case CrdKind::kIo:
        (void)node.pd->io_space().Revoke(node.base, node.count);
        break;
      case CrdKind::kObj:
        for (std::uint64_t i = 0; i < node.count; ++i) {
          (void)node.pd->caps().Remove(static_cast<CapSel>(node.base + i));
        }
        break;
      case CrdKind::kNull:
        break;
    }
  });
  if (touched_mem) {
    // Host address spaces are untagged: every core flushes. The initiator
    // pays the per-core flush exactly as before; under SMP the remote
    // cores additionally receive the shootdown IPI and pay the ack.
    ShootdownRemotes(cpu_id, ~0ull, hw::kHostTag);
    for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
      machine_->cpu(i).tlb().FlushTag(hw::kHostTag);
      Charge(cpu_id, machine_->cpu(i).model().tlb_flush);
    }
  }
  return Status::kSuccess;
}

// --- Interrupts and devices -------------------------------------------------

Status Hypervisor::GrantDeviceWindow(hw::PhysAddr base, std::uint64_t size) {
  if (root_pd_ == nullptr || (base & hw::kPageMask) != 0) {
    return Status::kBadParameter;
  }
  // Device windows are granted during single-core platform bring-up,
  // before any guest runs.
  mdb_.Get(SerialPhase::kBoot)
      .CreateRoot(root_pd_.get(), CrdKind::kMem, base >> hw::kPageShift,
                  hw::PageAlignUp(size) >> hw::kPageShift, perm::kRw);
  return Status::kSuccess;
}

Status Hypervisor::AssignGsi(Pd* caller, CapSel sm_sel, std::uint32_t gsi,
                             std::uint32_t cpu_id) {
  if (gsi >= hw::kNumGsis || cpu_id >= machine_->num_cpus()) {
    return Status::kBadParameter;
  }
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  auto sm = RefAs<Sm>(caller->caps().LookupRef(sm_sel), ObjType::kSm);
  if (sm == nullptr) {
    return Status::kBadCapability;
  }
  sm->bind_gsi(gsi);
  // Rebind hypercalls are serialized with delivery by the event loop; on
  // real hardware this is where sched_lock_ would be taken. Charging it
  // here would change the contention model and the golden digests.
  gsi_sms_.Get(SerialPhase::kUncharged)[gsi] = sm;
  gsi_direct_.Get(SerialPhase::kUncharged)[gsi] = nullptr;
  machine_->irq().Configure(gsi, cpu_id, static_cast<std::uint8_t>(32 + gsi));
  return Status::kSuccess;
}

Status Hypervisor::AssignGsiDirect(Pd* caller, CapSel vcpu_sel, std::uint32_t gsi) {
  if (gsi >= hw::kNumGsis) {
    return Status::kBadParameter;
  }
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  auto ec = RefAs<Ec>(caller->caps().LookupRef(vcpu_sel), ObjType::kEc);
  if (ec == nullptr || ec->kind() != Ec::Kind::kVcpu) {
    return Status::kBadCapability;
  }
  // Serialized with delivery and uncharged, as in AssignGsi.
  gsi_direct_.Get(SerialPhase::kUncharged)[gsi] = ec;
  gsi_sms_.Get(SerialPhase::kUncharged)[gsi] = nullptr;
  machine_->irq().Configure(gsi, ec->cpu(), static_cast<std::uint8_t>(32 + gsi));
  machine_->irq().Unmask(gsi);
  return Status::kSuccess;
}

Status Hypervisor::AssignDev(Pd* caller, CapSel pd_sel, hw::DeviceId dev,
                             std::uint32_t gsi) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch);
  Pd* pd = LookupCharged<Pd>(caller, pd_sel, ObjType::kPd, 0, boot_cpu_for_step_);
  if (pd == nullptr) {
    return Status::kBadCapability;
  }
  if (machine_->iommu().present()) {
    machine_->iommu().AttachDevice(dev, pd->mem_space().root(), host_paging_mode_);
    machine_->iommu().AllowGsi(dev, gsi);
    pd->assigned_devices().push_back(dev);
  }
  return Status::kSuccess;
}

Status Hypervisor::Recall(Pd* caller, CapSel ec_sel) {
  Charge(boot_cpu_for_step_, costs_.hypercall_dispatch + costs_.recall_ipi);
  auto ec = RefAs<Ec>(caller->caps().LookupRef(ec_sel), ObjType::kEc);
  if (ec == nullptr || ec->kind() != Ec::Kind::kVcpu) {
    return Status::kBadCapability;
  }
  ec->gstate().recall_pending = true;
  if (ec->block_state() == Ec::BlockState::kBlockedHalt) {
    WakeEc(ec.get());
  }
  return Status::kSuccess;
}

void Hypervisor::WakeEc(Ec* ec) {
  if (ec->block_state() == Ec::BlockState::kRunnable) {
    return;
  }
  ec->set_block_state(Ec::BlockState::kRunnable);
  auto& halted = cpu_state(ec->cpu()).halted();
  halted.erase(std::remove_if(halted.begin(), halted.end(),
                              [ec](const auto& p) { return p.get() == ec; }),
               halted.end());
  if (ec->sc() != nullptr) {
    EnqueueSc(ec->sc());
  }
}

// --- Interrupt delivery ------------------------------------------------------

void Hypervisor::ProcessPendingIrqs(std::uint32_t cpu_id) {
  hw::IrqChip& chip = machine_->irq();
  for (const std::uint8_t vector : chip.PendingVectors(cpu_id)) {
    if (vector < 32) {
      chip.Acknowledge(cpu_id, vector);
      continue;
    }
    const std::uint32_t gsi = vector - 32u;
    // Delivery runs on the CPU the GSI is routed to, and rebinds are
    // serialized with delivery by the event loop.
    if (Ec* vcpu = gsi_direct_.Get(SerialPhase::kRoutedDelivery)[gsi].get();
        vcpu != nullptr) {
      // Left pending: consumed by the guest engine on its next run.
      if (vcpu->block_state() == Ec::BlockState::kBlockedHalt) {
        WakeEc(vcpu);
      }
      continue;
    }
    chip.Acknowledge(cpu_id, vector);
    chip.Mask(gsi);
    Charge(cpu_id, costs_.irq_ack);
    events_.gsi_delivered.Count(cpu(cpu_id), gsi);
    if (auto& sm = gsi_sms_.Get(SerialPhase::kRoutedDelivery)[gsi];
        sm != nullptr) {
      sm->set_counter(sm->counter() + 1);
      if (!sm->waiters().empty()) {
        auto ec = sm->waiters().front();
        sm->waiters().pop_front();
        WakeSmWaiter(ec.get(), Status::kSuccess);
      }
    }
  }
}

// --- SMP primitives -----------------------------------------------------------

void Hypervisor::ChargeContention(LockState& lock, std::uint32_t cpu_id) {
  if (machine_->num_cpus() == 1) {
    return;  // Uncontended by construction; stays cost-free.
  }
  hw::Cpu& c = cpu(cpu_id);
  if (lock.last_cpu != ~0u && lock.last_cpu != cpu_id &&
      c.NowPs() < lock.hold_until_ps) {
    Charge(cpu_id, costs_.lock_contention);
    events_.lock_contention.Count(c, lock.last_cpu);
  }
  lock.last_cpu = cpu_id;
  lock.hold_until_ps =
      c.NowPs() + c.model().frequency.CyclesToPicos(costs_.lock_hold);
}

void Hypervisor::ShootdownRemotes(std::uint32_t origin_cpu,
                                  std::uint64_t targets, hw::TlbTag tag) {
  hw::Cpu& origin = cpu(origin_cpu);
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    if (i == origin_cpu || (targets & (1ull << i)) == 0) {
      continue;
    }
    // Initiator: post the IPI and spin for the ack.
    Charge(origin_cpu, costs_.shootdown_ipi);
    events_.tlb_shootdown.Count(origin, i);
    // Target: the IPI arrives no earlier than it was sent; the remote core
    // flushes the tagged entries and acks.
    hw::Cpu& remote = cpu(i);
    remote.AdvanceToPs(origin.NowPs());
    remote.tlb().FlushTag(tag);
    Charge(i, costs_.shootdown_ack + remote.model().tlb_flush);
    if (tracer_->enabled()) {
      tracer_->InstantAt(remote.NowPs(), sim::TraceCat::kIrq,
                         events_.tlb_shootdown_ack, static_cast<std::uint8_t>(i),
                         tag);
    }
    // The initiator's spin ends when the ack lands.
    origin.AdvanceToPs(remote.NowPs());
  }
}

void Hypervisor::ShootdownVtlb(Ec* origin_vcpu, std::uint64_t gva) {
  if (machine_->num_cpus() == 1) {
    return;  // Sibling vCPUs share the core; no cross-core state exists.
  }
  Pd* vm = &origin_vcpu->pd();
  for (auto it = vcpus_.begin(); it != vcpus_.end();) {
    auto sibling = it->lock();
    if (sibling == nullptr) {
      it = vcpus_.erase(it);
      continue;
    }
    ++it;
    if (sibling.get() == origin_vcpu || &sibling->pd() != vm ||
        sibling->cpu() == origin_vcpu->cpu() || sibling->vtlb() == nullptr) {
      continue;
    }
    const std::uint32_t origin_cpu = origin_vcpu->cpu();
    Charge(origin_cpu, costs_.shootdown_ipi);
    events_.tlb_shootdown.Count(cpu(origin_cpu), sibling->cpu());
    hw::Cpu& remote = cpu(sibling->cpu());
    remote.AdvanceToPs(cpu(origin_cpu).NowPs());
    sibling->vtlb()->HandleInvlpg(gva);
    Charge(sibling->cpu(), costs_.shootdown_ack);
    if (tracer_->enabled()) {
      tracer_->InstantAt(remote.NowPs(), sim::TraceCat::kIrq,
                         events_.tlb_shootdown_ack,
                         static_cast<std::uint8_t>(sibling->cpu()), gva);
    }
    cpu(origin_cpu).AdvanceToPs(remote.NowPs());
  }
}

void Hypervisor::SyncDeviceTime() {
  if (machine_->num_cpus() == 1) {
    machine_->SyncDeviceTime();
    return;
  }
  // Device time advances to the floor: the minimum clock over cores with
  // runnable work, so a device can never observe time from a core that
  // raced ahead of another runnable core. Cores without work do not hold
  // the floor back (nothing advances their clocks), and their state stays
  // untouched: a sleeping core's completion time must not depend on how
  // busy its neighbours are. When the last slice just blocked everything,
  // fall back to the dispatching core's clock; the fully-idle path
  // (SkipToNextEvent) takes over from there.
  sim::PicoSeconds floor = 0;
  bool any_runnable = false;
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    // nova-lint: allow(per-cpu-state) — machine-wide floor scan.
    if (!cpu_state(i).Runnable()) {
      continue;
    }
    const sim::PicoSeconds now = cpu(i).NowPs();
    floor = any_runnable ? std::min(floor, now) : now;
    any_runnable = true;
  }
  if (!any_runnable) {
    floor = cpu(boot_cpu_for_step_).NowPs();
  }
  machine_->events().AdvanceTo(floor);
}

// --- Scheduling loop ----------------------------------------------------------

std::uint32_t Hypervisor::PickNextCpu() {
  // The runnable CPU with the smallest local time (conservative
  // co-simulation across the package).
  std::uint32_t chosen = ~0u;
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    // nova-lint: allow(per-cpu-state) — the picker is the all-cores scan.
    if (!cpu_state(i).HasReady()) {
      continue;
    }
    if (chosen == ~0u || cpu(i).NowPs() < cpu(chosen).NowPs()) {
      chosen = i;
    }
  }
  return chosen;
}

bool Hypervisor::StepOnce() {
  std::uint32_t chosen = PickNextCpu();
  if (chosen == ~0u) {
    // Everything is blocked: handle pending interrupts in host context —
    // this may wake driver threads or halted direct-interrupt vCPUs.
    for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
      ProcessPendingIrqs(i);
    }
    chosen = PickNextCpu();
  }
  if (chosen == ~0u) {
    // Truly idle: hop to the next device event (which may raise an
    // interrupt and unblock work).
    for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
      cpu(i).SetIdle(true);
    }
    const bool progressed = machine_->SkipToNextEvent();
    for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
      cpu(i).SetIdle(false);
    }
    return progressed;
  }
  return DispatchOn(chosen);
}

bool Hypervisor::DispatchOn(std::uint32_t cpu_id) {
  CpuState& state = cpu_state(cpu_id);
  hw::Cpu& c = cpu(cpu_id);

  // Interrupts arriving while the CPU was in host mode are handled at the
  // kernel boundary; a CPU about to enter guest mode instead takes an
  // EXTINT VM exit inside RunVcpu, which is where the paper's "Hardware
  // Interrupts" events come from.
  if (state.PeekReady() != nullptr &&
      state.PeekReady()->ec().kind() == Ec::Kind::kGlobal) {
    ProcessPendingIrqs(cpu_id);
  }

  boot_cpu_for_step_ = cpu_id;
  Charge(cpu_id, costs_.sched_pick);

  Sc* sc = state.PickNext();
  if (sc->dead() || sc->ec().dead() || sc->ec().pd().dead()) {
    // A torn-down domain's SC surfaced from the queue: drop it silently.
    state.SetCurrent(nullptr);
    return true;
  }
  state.SetCurrent(sc);
  // Pin the EC: an event callback inside the slice may destroy the running
  // domain, freeing the SC (and with it the last plain reference).
  const std::shared_ptr<Ec> ec_ref = sc->ec_ref();
  Ec& ec = *ec_ref;
  if (tracer_->enabled()) {
    tracer_->InstantAt(c.NowPs(), sim::TraceCat::kSched, events_.sched_dispatch,
                       static_cast<std::uint8_t>(cpu_id), sc->prio(),
                       static_cast<std::uint64_t>(ec.kind()));
  }
  const sim::Cycles before = c.cycles();

  switch (ec.kind()) {
    case Ec::Kind::kGlobal:
      ec.step_fn()();
      break;
    case Ec::Kind::kVcpu:
      RunVcpu(sc, sc->left());
      break;
    case Ec::Kind::kLocal:
      break;  // Unreachable: local ECs have no SC.
  }

  state.SetCurrent(nullptr);
  if (ec.dead()) {
    // The domain was torn down by an event inside the slice: its SC died
    // with it and must not be consumed or requeued.
    SyncDeviceTime();
    return true;
  }
  sim::Cycles consumed = c.cycles() - before;
  if (consumed == 0) {
    c.Charge(1);  // Guarantee forward progress.
    consumed = 1;
  }
  const bool depleted = sc->Consume(consumed);

  if (ec.block_state() == Ec::BlockState::kRunnable) {
    if (depleted) {
      // Quantum exhausted with the EC still runnable: a preemption in the
      // round-robin sense — the SC refills and goes to the tail.
      if (tracer_->enabled()) {
        tracer_->InstantAt(c.NowPs(), sim::TraceCat::kSched,
                           events_.sched_preempt,
                           static_cast<std::uint8_t>(cpu_id), sc->prio());
      }
      sc->Refill();
    }
    state.Enqueue(sc, /*at_head=*/false);
  } else if (ec.block_state() == Ec::BlockState::kBlockedHalt) {
    state.ParkHalted(sc->ec_ref());
  }

  SyncDeviceTime();
  return true;
}

bool Hypervisor::WorkRemainsBefore(sim::PicoSeconds deadline_ps) {
  // Runnable work on a CPU that has not yet reached the deadline, or a
  // pending device event before it, keeps the run loop going. Idle CPUs
  // do not: nothing will advance their clocks.
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    // nova-lint: allow(per-cpu-state) — machine-wide progress check.
    if (cpu_state(i).HasReady() && cpu(i).NowPs() < deadline_ps) {
      return true;
    }
  }
  if (!machine_->events().empty() &&
      machine_->events().NextDeadline() < deadline_ps) {
    return true;
  }
  // A pending hardware interrupt can wake blocked threads or halted vCPUs.
  for (std::uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    if (machine_->irq().HasPending(i)) {
      return true;
    }
  }
  return false;
}

void Hypervisor::RunUntil(sim::PicoSeconds deadline_ps) {
  while (WorkRemainsBefore(deadline_ps)) {
    if (!StepOnce()) {
      return;  // Fully idle, no pending events: nothing will ever happen.
    }
  }
}

void Hypervisor::RunUntilCondition(const std::function<bool()>& pred,
                                   sim::PicoSeconds deadline_ps) {
  while (!pred() && WorkRemainsBefore(deadline_ps)) {
    if (!StepOnce()) {
      return;
    }
  }
}

}  // namespace nova::hv
