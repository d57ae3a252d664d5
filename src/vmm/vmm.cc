#include "src/vmm/vmm.h"

#include <algorithm>
#include <vector>

namespace nova::vmm {
namespace {

using hv::mtd::kCr;
using hv::mtd::kGprAcdb;
using hv::mtd::kGprBsd;
using hv::mtd::kInj;
using hv::mtd::kQual;
using hv::mtd::kRflags;
using hv::mtd::kRip;
using hv::mtd::kSta;

// Per-event message transfer descriptors: each portal moves only the state
// its handler needs (§5.2, §7). The CPUID portal, for example, carries the
// general-purpose registers, instruction pointer and instruction length —
// the exact set the paper cites.
hv::Mtd PortalMtd(hv::Event event) {
  switch (event) {
    case hv::Event::kPio: return kGprAcdb | kGprBsd | kRip | kQual | kRflags | kInj;
    case hv::Event::kCpuid: return kGprAcdb | kRip | kRflags | kInj;
    case hv::Event::kHlt: return kSta | kRip | kRflags | kInj;
    case hv::Event::kMovCr: return kCr | kRip | kQual | kRflags | kInj;
    case hv::Event::kInvlpg: return kQual | kRip | kRflags | kInj;
    case hv::Event::kMmio:
      return kGprAcdb | kGprBsd | kRip | kQual | kCr | kRflags | kInj;
    case hv::Event::kIntrWindow: return kRflags | kInj;
    case hv::Event::kRecall: return kRflags | kInj | kSta;
    case hv::Event::kVmcall: return kGprAcdb | kRip | kQual | kRflags | kInj;
    case hv::Event::kError: return kRip | kQual | kSta | kRflags | kInj;
    case hv::Event::kCount: break;
  }
  return hv::mtd::kAll;
}

}  // namespace

Vmm::Vmm(hv::Hypervisor* hv, root::RootPartitionManager* root, VmmConfig config)
    : hv_(hv), root_(root), config_(std::move(config)) {
  // The VMM itself is an ordinary user domain created by the root PM; its
  // kernel-memory account bounds everything the kernel allocates for this
  // VM (the VM's domain is a pass-through child of it).
  vmm_pd_sel_ = root_->CreatePd(config_.name + "-vmm", /*is_vm=*/false, &vmm_pd_,
                                config_.kmem_quota_frames);
  if (vmm_pd_ == nullptr) {
    create_status_ = Status::kNoMem;  // Quota too small for the domain itself.
    return;
  }
  // Parent channel: a handle on the root domain so the VMM can push
  // capabilities up when requesting services (device assignment).
  root_handle_sel_ = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
  (void)hv_->Delegate(root_->pd(), vmm_pd_sel_,
                hv::Crd::Obj(hv::kSelOwnPd, 0, hv::perm::kDelegate),
                root_handle_sel_);

  // Guest-physical memory: granted root -> VMM (identity), later delegated
  // VMM -> VM at guest-physical 0. Power-of-two aligned so the whole guest
  // is one mapping-database node.
  const std::uint64_t pages = config_.guest_mem_bytes >> hw::kPageShift;
  if (config_.fixed_guest_base_page != 0) {
    // Restart over surviving guest RAM: the frames were returned to the
    // root when the crashed VMM's domains were destroyed; re-grant the same
    // identity range so guest-physical to host-physical stays constant.
    guest_base_page_ = root_->GrantMemoryAt(vmm_pd_sel_, config_.fixed_guest_base_page,
                                            pages, hv::perm::kRwx, config_.large_pages);
  } else {
    guest_base_page_ = root_->GrantMemory(vmm_pd_sel_, pages, ~0ull, hv::perm::kRwx,
                                          config_.large_pages, /*align_pow2=*/true);
  }

  vpic_ = std::make_unique<VPic>([this] { KickVcpus(); });
  vpit_ = std::make_unique<VPit>(
      &hv_->machine().events(), vpic_.get(),
      sim::EventQueue::OwnerToken("vmm." + config_.name + ".vpit"));
  vuart_ = std::make_unique<VUart>();
  vahci_ = std::make_unique<VAhci>(VAhci::Backend{
      .read_guest = [this](std::uint64_t gpa, void* out,
                           std::uint64_t len) { return ReadGuest(gpa, out, len); },
      .issue = [this](bool write, std::uint64_t lba, std::uint64_t sectors,
                      std::uint64_t buffer_gpa, std::uint64_t cookie) {
        return IssueDisk(write, lba, sectors, buffer_gpa, cookie);
      },
      .raise_irq = [this](std::uint8_t vector) { vpic_->Raise(vector); }});
  emulator_ = std::make_unique<InsnEmulator>(
      &hv_->machine().mem(), &cpu(),
      [this](std::uint64_t gpa) { return GpaToHpa(gpa); });
  models_ = {vpic_.get(), vpit_.get(), vuart_.get(), vahci_.get()};

  CreateVm();
}

std::uint64_t Vmm::HbOwner() const {
  return sim::EventQueue::OwnerToken("vmm." + config_.name + ".hb");
}

void Vmm::StartHeartbeat(sim::PicoSeconds period_ps, hw::PhysAddr hb_addr) {
  hb_period_ps_ = period_ps;
  hb_addr_ = hb_addr;
  hb_running_ = true;
  hb_owner_ = hv_->machine().events().RegisterOwner(
      HbOwner(), [this](const sim::EventTag& tag) -> sim::EventQueue::Callback {
        if (tag.op != 1) {
          return nullptr;
        }
        return [this] { HeartbeatTick(); };
      });
  HeartbeatTick();
}

void Vmm::HeartbeatTick() {
  if (!hb_running_ || crashed_) {
    hb_event_ = 0;
    return;  // A dead VMM stops beating — that is the signal.
  }
  ++hb_count_;
  (void)hv_->machine().mem().Write(hb_addr_, &hb_count_, sizeof(hb_count_));
  hb_event_ = hv_->machine().events().ScheduleAfter(
      hb_period_ps_, sim::EventTag{HbOwner(), /*op=*/1});
}

std::uint64_t Vmm::GpaToHpa(std::uint64_t gpa) const {
  if (gpa >= config_.guest_mem_bytes) {
    return hw::kNoHpa;
  }
  return (guest_base_page_ << hw::kPageShift) + gpa;
}

bool Vmm::ReadGuest(std::uint64_t gpa, void* out, std::uint64_t len) const {
  const std::uint64_t hpa = GpaToHpa(gpa);
  if (hpa == hw::kNoHpa || gpa + len > config_.guest_mem_bytes) {
    return false;
  }
  return Ok(hv_->machine().mem().Read(hpa, out, len));
}

bool Vmm::WriteGuest(std::uint64_t gpa, const void* data, std::uint64_t len) {
  const std::uint64_t hpa = GpaToHpa(gpa);
  if (hpa == hw::kNoHpa || gpa + len > config_.guest_mem_bytes) {
    return false;
  }
  return Ok(hv_->machine().mem().Write(hpa, data, len));
}

void Vmm::InstallImage(const hw::isa::Assembler& as, std::uint64_t gpa_base) {
  const std::uint64_t gpa = gpa_base == ~0ull ? as.base() : gpa_base;
  WriteGuest(gpa, as.bytes().data(), as.bytes().size());
}

void Vmm::CreateVm() {
  // VM protection domain.
  vm_pd_sel_ = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
  if (!NoteStatus(
          hv_->CreatePd(vmm_pd_, vm_pd_sel_, config_.name, /*is_vm=*/true, &vm_pd_))) {
    return;
  }

  // Guest-physical memory: delegate the whole (power-of-two) range in
  // chunks, with superpage host mappings when configured (§8.1).
  const std::uint64_t pages = config_.guest_mem_bytes >> hw::kPageShift;
  const std::uint64_t large_pages =
      hw::LargePageSize(hv_->machine().cpu(0).model().host_paging) / hw::kPageSize;
  std::uint64_t remaining = pages;
  std::uint64_t src = guest_base_page_;
  std::uint64_t dst = 0;
  while (remaining > 0) {
    std::uint8_t order = 0;
    while ((2ull << order) <= remaining && (src & ((2ull << order) - 1)) == 0 &&
           (dst & ((2ull << order) - 1)) == 0) {
      ++order;
    }
    const std::uint64_t chunk = 1ull << order;
    const bool chunk_large = config_.large_pages && chunk % large_pages == 0;
    NoteStatus(hv_->Delegate(vmm_pd_, vm_pd_sel_,
                             hv::Crd::Mem(src, order, hv::perm::kRwx), dst, 0xff,
                             chunk_large));
    src += chunk;
    dst += chunk;
    remaining -= chunk;
  }

  // Virtual CPUs, their handler ECs and event portals.
  for (std::uint32_t v = 0; v < config_.num_vcpus; ++v) {
    const std::uint32_t cpu_id = config_.first_cpu + v;
    const hv::CapSel handler_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
    hv::Ec* handler = nullptr;
    if (!NoteStatus(hv_->CreateEcLocal(vmm_pd_, handler_sel, hv::kSelOwnPd, cpu_id,
                                       [this](std::uint64_t id) {
                                         HandleExit(static_cast<std::uint32_t>(id >> 8),
                                                    static_cast<hv::Event>(id & 0xff));
                                       },
                                       &handler))) {
      return;
    }
    handler_ecs_.push_back(handler);
    in_exit_.push_back(false);

    const hv::CapSel evt_base = 0x100 + v * 0x10;  // In the VM's cap space.
    const hv::CapSel vcpu_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
    hv::Ec* vcpu = nullptr;
    if (!NoteStatus(
            hv_->CreateVcpu(vmm_pd_, vcpu_sel, vm_pd_sel_, cpu_id, evt_base, &vcpu))) {
      return;
    }
    vcpus_.push_back(vcpu);
    vcpu_sels_.push_back(vcpu_sel);

    for (std::uint32_t e = 0; e < hv::kNumEvents; ++e) {
      const auto event = static_cast<hv::Event>(e);
      const hv::CapSel pt_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
      const hv::Mtd m =
          config_.full_state_transfer
              ? (hv::mtd::kAll & ~hv::mtd::kTlbFlush)
              : PortalMtd(event);
      if (!NoteStatus(hv_->CreatePt(vmm_pd_, pt_sel, handler_sel, m,
                                    (static_cast<std::uint64_t>(v) << 8) | e))) {
        return;
      }
      NoteStatus(hv_->Delegate(vmm_pd_, vm_pd_sel_,
                               hv::Crd::Obj(pt_sel, 0, hv::perm::kCall), evt_base + e));
    }

    // Execution controls per configuration.
    hw::VmControls& ctl = vcpu->ctl();
    if (config_.mode == hw::TranslationMode::kShadow) {
      ctl.mode = hw::TranslationMode::kShadow;
      ctl.nested_root = 0;  // Kernel allocates the shadow table.
      ctl.intercept_cr3 = true;
      ctl.intercept_invlpg = true;
    }
    if (config_.disable_intercepts) {
      ctl.intercept_cpuid = false;
      ctl.intercept_hlt = false;
      ctl.intercept_vmcall = false;
    }
    ctl.direct_interrupts = config_.direct_interrupts;
  }
}

Status Vmm::Start(std::uint64_t entry_rip, std::uint32_t vcpu) {
  if (!Ok(create_status_) || vcpu >= vcpus_.size()) {
    return Ok(create_status_) ? Status::kBadParameter : create_status_;
  }
  gstate(vcpu).rip = entry_rip;
  const hv::CapSel sc_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
  const Status s =
      hv_->CreateSc(vmm_pd_, sc_sel, vcpu_sels_[vcpu], config_.prio, config_.quantum);
  NoteStatus(s);
  return s;
}

hv::CapSel Vmm::ExposeVmToRoot() {
  if (vm_sel_in_root_ != hv::kInvalidSel) {
    return vm_sel_in_root_;
  }
  // The root holds the VMM's pd cap; for grants into the *VM*, the root
  // needs a capability to the VM pd, which the VMM delegates up through
  // its parent channel.
  vm_sel_in_root_ = root_->FreeSel();
  (void)hv_->Delegate(vmm_pd_, root_handle_sel_,
                hv::Crd::Obj(vm_pd_sel_, 0, hv::perm::kAll), vm_sel_in_root_);
  return vm_sel_in_root_;
}

Status Vmm::GrantGuestPorts(std::uint16_t base, std::uint8_t order) {
  return hv_->Delegate(root_->pd(), ExposeVmToRoot(), hv::Crd::Io(base, order),
                       base);
}

Status Vmm::AssignHostDevice(const std::string& name, std::uint8_t vector,
                             std::uint64_t gpa_page) {
  // Map the device window into the VM and attach its DMA context to the
  // VM's page table, so the device's DMA is translated guest-physical to
  // host-physical by the IOMMU (§8.2, "Direct").
  const hv::CapSel vm_sel_in_root = ExposeVmToRoot();
  const Status s = root_->AssignDevice(vm_sel_in_root, name, gpa_page);
  if (!Ok(s)) {
    return s;
  }
  // The device interrupt goes to a VMM interrupt thread which forwards it
  // onto the virtual interrupt controller ("Direct" still pays interrupt
  // virtualization, §8.2/8.3).
  const root::DeviceInfo* dev = root_->FindDevice(name);
  if (dev != nullptr && dev->gsi != ~0u) {
    if (config_.direct_interrupts) {
      // Idealized zero-exit configuration: interrupts delivered straight
      // into the guest (§8.1 "Direct" bar).
      const hv::CapSel vcpu_in_root = root_->FreeSel();
      (void)hv_->Delegate(vmm_pd_, root_handle_sel_,
                    hv::Crd::Obj(vcpu_sels_[0], 0, hv::perm::kAll), vcpu_in_root);
      return hv_->AssignGsiDirect(root_->pd(), vcpu_in_root, dev->gsi);
    }
    const hv::CapSel sm_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
    (void)root_->BindInterrupt(vmm_pd_sel_, name, sm_sel, config_.first_cpu);
    // Interrupt thread: wait on the semaphore, raise the virtual vector.
    const hv::CapSel irq_ec_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
    irq_ecs_storage_.push_back(nullptr);
    const std::size_t slot = irq_ecs_storage_.size() - 1;
    hv::Ec* irq_ec = nullptr;
    (void)hv_->CreateEcGlobal(vmm_pd_, irq_ec_sel, hv::kSelOwnPd, config_.first_cpu,
                        [this, sm_sel, vector, slot] {
                          hv::Ec* self = irq_ecs_storage_[slot];
                          if (hv_->SmDown(self, sm_sel, /*unmask_gsi=*/true) !=
                              hv::Hypervisor::DownResult::kAcquired) {
                            return;
                          }
                          vpic_->Raise(vector);
                        },
                        &irq_ec);
    irq_ecs_storage_[slot] = irq_ec;
    const hv::CapSel sc_sel = vmm_pd_->caps().FindFree(hv::kSelFirstFree);
    (void)hv_->CreateSc(vmm_pd_, sc_sel, irq_ec_sel, config_.prio + 10, 2'000'000);
  }
  return Status::kSuccess;
}

void Vmm::ConnectDiskServer(services::DiskServer* server) {
  disk_server_ = server;
  // Completion portal: handled by a dedicated local EC in the VMM domain;
  // the capability lives in the root's space so the root can broker it to
  // the server (channel setup is a control-plane operation).
  const hv::CapSel comp_ec_sel = root_->FreeSel();
  hv::Ec* comp_ec = nullptr;
  (void)hv_->CreateEcLocal(root_->pd(), comp_ec_sel, vmm_pd_sel_, config_.first_cpu,
                     [this](std::uint64_t) { OnDiskCompletion(); }, &comp_ec);
  comp_ec_ = comp_ec;
  const hv::CapSel comp_pt_sel = root_->FreeSel();
  (void)hv_->CreatePt(root_->pd(), comp_pt_sel, comp_ec_sel, 0, 0);

  const services::DiskServer::Channel ch =
      server->OpenChannel(vmm_pd_sel_, comp_pt_sel);
  disk_portal_ = ch.request_portal;
  disk_shared_page_ = ch.shared_page;
  disk_channel_id_ = ch.channel_id;
}

Status Vmm::IssueDisk(bool write, std::uint64_t lba, std::uint64_t sectors,
                      std::uint64_t buffer_gpa, std::uint64_t cookie) {
  if (disk_portal_ == hv::kInvalidSel) {
    return Status::kBadDevice;
  }
  const std::uint64_t bytes = sectors * hw::kSectorSize;
  if (GpaToHpa(buffer_gpa) == hw::kNoHpa ||
      buffer_gpa + bytes > config_.guest_mem_bytes) {
    return Status::kBadParameter;
  }
  const std::uint64_t first_page = GpaToHpa(buffer_gpa) >> hw::kPageShift;
  const std::uint64_t pages = (bytes + hw::kPageMask) >> hw::kPageShift;

  hv::Ec* ec = handler_ecs_[cur_vcpu_];
  hv::Utcb& u = ec->utcb();
  const hv::ArchState saved_arch = u.arch;  // The call reuses this UTCB.
  const hv::Mtd saved_mtd = u.mtd;
  u.untyped = 5;
  u.words[0] = write ? services::diskproto::kOpWrite : services::diskproto::kOpRead;
  u.words[1] = lba;
  u.words[2] = sectors;
  u.words[3] = first_page;
  u.words[4] = cookie;

  // Delegate the guest's DMA buffer to the driver on first use (§4.2: the
  // driver can then only reach the delegated buffers). The delegation is
  // cached: hot guest buffers are re-used request after request.
  std::uint8_t order = 0;
  while ((1ull << order) < pages) {
    ++order;
  }
  const std::uint64_t span_base = first_page & ~((1ull << order) - 1);
  bool need_delegate = false;
  for (std::uint64_t p = 0; p < (1ull << order); ++p) {
    if (!delegated_buffer_pages_.contains(span_base + p)) {
      need_delegate = true;
    }
  }
  u.num_typed = 0;
  if (need_delegate) {
    u.num_typed = 1;
    u.typed[0] = hv::TypedItem{hv::Crd::Mem(span_base, order, hv::perm::kRw),
                               span_base};
    for (std::uint64_t p = 0; p < (1ull << order); ++p) {
      delegated_buffer_pages_.insert(span_base + p);
    }
  }

  const Status call_status = hv_->Call(ec, disk_portal_);
  Status result = call_status;
  if (Ok(call_status) && u.untyped >= 1) {
    result = static_cast<Status>(u.words[0]);
  }
  u.arch = saved_arch;
  u.mtd = saved_mtd;
  return result;
}

void Vmm::OnDiskCompletion() {
  if (crashed_) {
    return;  // Completions for a dead VMM fall on the floor.
  }
  // Drain new completion records from the shared ring ("7) completed").
  hv::Utcb& u = comp_ec_->utcb();
  const std::uint32_t ring_head =
      u.untyped >= 2 ? static_cast<std::uint32_t>(u.words[1]) : disk_ring_tail_ + 1;
  hw::PhysMem& mem = hv_->machine().mem();
  const hw::PhysAddr ring = disk_shared_page_ << hw::kPageShift;
  constexpr std::uint32_t kRecords =
      hw::kPageSize / sizeof(services::DiskCompletionRecord);
  while (disk_ring_tail_ != ring_head) {
    services::DiskCompletionRecord rec{};
    (void)mem.Read(ring + (disk_ring_tail_ % kRecords) * sizeof(rec), &rec, sizeof(rec));
    ++disk_ring_tail_;
    cpu().Charge(config_.device_update);
    vahci_->OnCompletion(rec.cookie, static_cast<Status>(rec.status));
  }
  u.Clear();
}

DeviceModel* Vmm::RouteGpa(std::uint64_t gpa) {
  for (DeviceModel* m : models_) {
    if (m->OwnsGpa(gpa)) {
      return m;
    }
  }
  return nullptr;
}

DeviceModel* Vmm::RoutePort(std::uint16_t port) {
  for (DeviceModel* m : models_) {
    if (m->OwnsPort(port)) {
      return m;
    }
  }
  return nullptr;
}

void Vmm::HandleExit(std::uint32_t vcpu, hv::Event event) {
  cur_vcpu_ = vcpu;
  in_exit_[vcpu] = true;
  ++exits_handled_;
  hv::ArchState& arch = handler_ecs_[vcpu]->utcb().arch;

  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kVmmCrash, config_.name)) {
    Crash();
  }
  if (crashed_) {
    // A dead monitor answers no exits: the vCPU parks until the supervisor
    // tears this domain down and restarts the VM under a fresh VMM.
    arch.halted = true;
    in_exit_[vcpu] = false;
    return;
  }

  switch (event) {
    case hv::Event::kPio: OnPio(arch); break;
    case hv::Event::kCpuid: OnCpuid(arch); break;
    case hv::Event::kHlt: OnHlt(arch); break;
    case hv::Event::kMmio: OnMmio(arch); break;
    case hv::Event::kIntrWindow: OnIntrWindow(arch); break;
    case hv::Event::kRecall: OnRecall(arch); break;
    case hv::Event::kVmcall: OnVmcall(arch); break;
    case hv::Event::kMovCr:
    case hv::Event::kInvlpg:
      // Only intercepted under shadow paging, where the kernel's vTLB
      // handles them; reaching the VMM means a configuration error.
      arch.rip += arch.insn_len;
      break;
    case hv::Event::kError:
      OnError(arch);
      break;
    case hv::Event::kCount:
      break;
  }

  // Deliver any pending virtual interrupt with the reply (§7.5).
  if (event != hv::Event::kError) {
    TryDeliver(arch);
  }
  in_exit_[vcpu] = false;
}

void Vmm::OnPio(hv::ArchState& arch) {
  cpu().Charge(config_.pio_dispatch);
  const auto port = static_cast<std::uint16_t>(arch.qual & 0xffff);
  const bool is_write = (arch.qual >> 24) & 1;
  const auto reg = static_cast<std::uint8_t>((arch.qual >> 25) & 0x7);
  DeviceModel* model = RoutePort(port);
  cpu().Charge(config_.device_update);
  if (is_write) {
    if (model != nullptr) {
      (void)model->PioWrite(port, static_cast<std::uint32_t>(arch.regs[reg]));
    }
  } else {
    arch.regs[reg] = model != nullptr ? model->PioRead(port) : ~0u;
  }
  arch.rip += arch.insn_len;
}

void Vmm::OnCpuid(hv::ArchState& arch) {
  cpu().Charge(config_.cpuid_emulate);
  // Emulated identification: hypervisor-present bit and a NOVA signature.
  arch.regs[0] = 0x0000'0001;
  arch.regs[1] = 0x4e4f'5641;  // "NOVA"
  arch.regs[2] = 0x8000'0000 | (config_.num_vcpus << 8);
  arch.regs[3] = 0x0178'bfbf;
  arch.rip += arch.insn_len;
}

void Vmm::OnHlt(hv::ArchState& arch) {
  cpu().Charge(config_.hlt_handle);
  if (vpic_->HasDeliverable() && arch.interrupts_enabled) {
    arch.halted = false;  // TryDeliver injects below.
  } else {
    arch.halted = true;  // Park until the next event (completion/recall).
  }
}

void Vmm::OnMmio(hv::ArchState& arch) {
  cpu().Charge(config_.mmio_dispatch);
  const InsnEmulator::Result r = emulator_->EmulateMmio(
      arch,
      [this](std::uint64_t gpa, unsigned size) -> std::uint64_t {
        cpu().Charge(config_.device_update);
        DeviceModel* m = RouteGpa(gpa);
        return m != nullptr ? m->MmioRead(gpa, size) : ~0ull;
      },
      [this](std::uint64_t gpa, unsigned size, std::uint64_t value) {
        cpu().Charge(config_.device_update);
        DeviceModel* m = RouteGpa(gpa);
        if (m != nullptr) {
          (void)m->MmioWrite(gpa, size, value);
        }
      });
  switch (r) {
    case InsnEmulator::Result::kOk:
      break;
    case InsnEmulator::Result::kInjectPf:
      arch.inject_pending = true;
      arch.inject_vector = hw::kVectorPageFault;
      break;
    case InsnEmulator::Result::kUnsupported:
      arch.halted = true;  // Would be a guest-visible machine check.
      break;
  }
}

void Vmm::OnIntrWindow(hv::ArchState& arch) {
  arch.request_intr_window = false;  // TryDeliver re-arms if still needed.
}

void Vmm::OnRecall(hv::ArchState& arch) {
  if (vpic_->HasDeliverable()) {
    arch.halted = false;  // Wake a parked vCPU for injection.
  }
}

void Vmm::OnVmcall(hv::ArchState& arch) {
  // The virtual BIOS is integrated with the VMM (§7.4): firmware services
  // run here, with direct access to the device models — no per-operation
  // round trips into the virtual machine.
  cpu().Charge(config_.device_update);
  switch (arch.qual) {
    case 1:  // putchar(r1)
      (void)vuart_->PioWrite(vuart::kData, static_cast<std::uint32_t>(arch.regs[1]));
      arch.regs[0] = 0;
      break;
    case 2: {  // disk read: lba=r1, sectors=r2, dest gpa=r3
      if (boot_disk_ == nullptr) {
        arch.regs[0] = static_cast<std::uint64_t>(Status::kBadDevice);
        break;
      }
      const std::uint64_t bytes = arch.regs[2] * hw::kSectorSize;
      std::vector<std::uint8_t> buf(bytes);
      boot_disk_->ReadContent(arch.regs[1] * hw::kSectorSize, buf.data(), bytes);
      WriteGuest(arch.regs[3], buf.data(), bytes);
      cpu().Charge(bytes / 8 * cpu().model().word_copy);
      arch.regs[0] = 0;
      break;
    }
    case 3:  // memory size
      arch.regs[1] = config_.guest_mem_bytes;
      arch.regs[0] = 0;
      break;
    case 4: {  // Paravirtual console: write r2 bytes from guest VA r1.
      // An "enlightened" guest batches console output in one hypercall
      // instead of one port exit per character (§4's paravirtualization
      // remark). The VMM fetches the buffer through the guest's own page
      // tables, like any other guest-memory access.
      const std::uint64_t len = std::min<std::uint64_t>(arch.regs[2], 4096);
      std::vector<char> buf(len);
      if (emulator_->ReadGuestVirt(arch, arch.regs[1], buf.data(), len)) {
        for (const char c : buf) {
          (void)vuart_->PioWrite(vuart::kData, static_cast<std::uint8_t>(c));
        }
        cpu().Charge(len / 8 * cpu().model().word_copy);
        arch.regs[0] = 0;
      } else {
        arch.regs[0] = static_cast<std::uint64_t>(Status::kMemoryFault);
      }
      break;
    }
    default:
      arch.regs[0] = static_cast<std::uint64_t>(Status::kBadHypercall);
      break;
  }
  arch.rip += arch.insn_len;
}

void Vmm::OnError(hv::ArchState& arch) {
  arch.halted = true;  // A crashed guest only takes down its own VM (§4.2).
}

void Vmm::TryDeliver(hv::ArchState& arch) {
  cpu().Charge(config_.inject_decide);
  if (!vpic_->HasDeliverable()) {
    return;
  }
  if (arch.interrupts_enabled && !arch.inject_pending) {
    const std::uint8_t vector = vpic_->HighestDeliverable();
    vpic_->BeginService(vector);
    arch.inject_pending = true;
    arch.inject_vector = vector;
    arch.halted = false;
    ++injected_;
  } else if (!arch.interrupts_enabled) {
    arch.request_intr_window = true;  // Exit when the guest re-enables.
  }
}

void Vmm::KickVcpus() {
  for (std::uint32_t v = 0; v < vcpus_.size(); ++v) {
    if (in_exit_[v]) {
      continue;  // Delivered with the in-flight reply.
    }
    (void)hv_->Recall(vmm_pd_, vcpu_sels_[v]);
  }
}

template <class Ar>
void Vmm::Io(Ar& ar) {
  // Construction-determined identity, verified on load.
  ar.Verify(guest_base_page_);
  ar.Verify(static_cast<std::uint32_t>(vcpus_.size()));
  ar.Io(exits_handled_, injected_, cur_vcpu_);
  for (bool& b : in_exit_) {
    ar.Io(b);
  }
  ar.Io(disk_ring_tail_);
  std::vector<std::uint64_t> delegated(delegated_buffer_pages_.begin(),
                                       delegated_buffer_pages_.end());
  ar.Seq(sim::kCount32, delegated);
  if constexpr (Ar::kLoading) {
    delegated_buffer_pages_ = {delegated.begin(), delegated.end()};
  }
  ar.Io(crashed_, hb_count_, hb_running_, hb_period_ps_, hb_addr_, hb_event_,
        *vpic_, *vpit_, *vuart_, *vahci_);
}

Status Vmm::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status Vmm::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::vmm
