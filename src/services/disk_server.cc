#include "src/services/disk_server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/services/host_io.h"

namespace nova::services {

using root::kAhciMmioBase;

namespace {
constexpr std::uint64_t kDiskServerOwner =
    sim::EventQueue::OwnerToken("svc.disk");
constexpr std::uint32_t kOpDeadline = 1;
constexpr std::uint32_t kOpReissue = 2;
constexpr std::uint8_t kIrqPrio = 40;  // Interrupt thread's priority.

// The server's own capabilities and objects are set up by the root that
// builds it; a refused step leaves it unable to serve, so it stops there,
// naming the call, rather than at the first use of what the call left
// unset.
void CheckOk(const char* call, Status s) {
  if (!Ok(s)) {
    std::fprintf(stderr, "services::DiskServer: %s failed: %s\n", call,
                 StatusName(s));
    std::abort();
  }
}

// GrantMemory's first frame, which is 0 when the root could not allocate
// or delegate the frames.
std::uint64_t CheckGranted(const char* call, std::uint64_t first_page) {
  if (first_page == 0) {
    std::fprintf(stderr, "services::DiskServer: %s failed: no frames\n", call);
    std::abort();
  }
  return first_page;
}

// Root delegates the AHCI window when it builds the server and nothing
// revokes it, so a refused access is a broken construction invariant.
void CheckMmio(const char* access, std::uint64_t offset, Status s) {
  if (!Ok(s)) {
    std::fprintf(stderr,
                 "services::DiskServer: AHCI %s at offset 0x%llx failed: %s\n",
                 access, static_cast<unsigned long long>(offset), StatusName(s));
    std::abort();
  }
}
}  // namespace

DiskServer::DiskServer(hv::Hypervisor* hv, root::RootPartitionManager* root,
                       std::uint32_t cpu)
    : hv_(hv), root_(root), cpu_(cpu) {
  event_owner_ = hv_->machine().events().RegisterOwner(
      kDiskServerOwner,
      [this](const sim::EventTag& tag) -> sim::EventQueue::Callback {
        const int slot = static_cast<int>(tag.a);
        const std::uint64_t gen = tag.b;
        if (slot < 0 || slot >= hw::ahci::kNumSlots) {
          return nullptr;
        }
        if (tag.op == kOpDeadline) {
          return [this, slot, gen] { DeadlineExpired(slot, gen); };
        }
        if (tag.op == kOpReissue) {
          return [this, slot, gen] { ReissueSlot(slot, gen); };
        }
        return nullptr;
      });
  pd_sel_ = root->CreatePd("disk-server", /*is_vm=*/false, &pd_);
  CheckOk("AssignDevice(ahci)", root->AssignDevice(pd_sel_, "ahci"));
  CheckOk("BindInterrupt(ahci)",
          root->BindInterrupt(pd_sel_, "ahci", kSmSel, cpu));

  // Command list (1 KiB) + command tables (32 x 256 B): three pages.
  clb_page_ = CheckGranted("GrantMemory(command list)",
                           root->GrantMemory(pd_sel_, 1, ~0ull, hv::perm::kRw));
  ctba_page_ = CheckGranted("GrantMemory(command tables)",
                            root->GrantMemory(pd_sel_, 2, ~0ull, hv::perm::kRw));

  // Request handler EC: one per server, shared by every channel portal.
  req_ec_cap_sel_ = root->FreeSel();
  CheckOk("CreateEcLocal(request handler)",
          hv_->CreateEcLocal(root->pd(), req_ec_cap_sel_, pd_sel_, cpu,
                             [this](std::uint64_t channel_id) {
                               HandleRequest(
                                   static_cast<std::uint32_t>(channel_id));
                             },
                             &req_ec_));
  // Accept DMA-buffer delegations anywhere in the identity space.
  req_ec_->utcb().recv_window = hv::Crd::Mem(0, 50, hv::perm::kRw);

  // Interrupt thread.
  const hv::CapSel irq_ec_sel = root->FreeSel();
  CheckOk("CreateEcGlobal(interrupt thread)",
          hv_->CreateEcGlobal(root->pd(), irq_ec_sel, pd_sel_, cpu,
                              [this] { IrqThreadStep(); }, &irq_ec_));
  const hv::CapSel irq_sc_sel = root->FreeSel();
  CheckOk("CreateSc(interrupt thread)",
          hv_->CreateSc(root->pd(), irq_sc_sel, irq_ec_sel, kIrqPrio,
                        5'000'000));

  // Bring the controller up. Task-file errors interrupt too, so errored
  // commands surface on the same semaphore as completions.
  MmioWrite(hw::ahci::kGhc, hw::ahci::kGhcIntrEnable);
  MmioWrite(hw::ahci::kPxClb, clb_page_ << hw::kPageShift);
  MmioWrite(hw::ahci::kPxIe, hw::ahci::kPxIsDhrs | hw::ahci::kPxIsTfes);
  MmioWrite(hw::ahci::kPxCmd, hw::ahci::kPxCmdStart);
}

void DiskServer::SetRequestDeadline(sim::PicoSeconds deadline_ps,
                                    std::uint32_t max_retries,
                                    sim::PicoSeconds backoff_ps) {
  deadline_ps_ = deadline_ps;
  max_retries_ = max_retries;
  backoff_ps_ = backoff_ps;
}

std::uint64_t DiskServer::MmioRead(std::uint64_t offset) {
  std::uint64_t value = 0;
  CheckMmio("read", offset,
            HostMmioRead(hv_, pd_, cpu_, kAhciMmioBase + offset, 4, &value));
  return value;
}

void DiskServer::MmioWrite(std::uint64_t offset, std::uint64_t value) {
  CheckMmio("write", offset,
            HostMmioWrite(hv_, pd_, cpu_, kAhciMmioBase + offset, 4, value));
}

DiskServer::Channel DiskServer::OpenChannel(hv::CapSel client_pd_sel,
                                            hv::CapSel completion_pt_sel,
                                            std::uint32_t max_outstanding) {
  Channel out{hv::kInvalidSel, 0};
  auto client =
      root_->pd()->caps().LookupAs<hv::Pd>(client_pd_sel, hv::ObjType::kPd, 0);
  if (client == nullptr) {
    return out;
  }

  // The server-side handle on the client's completion portal.
  const hv::CapSel comp_sel = next_comp_sel_++;
  CheckOk("Delegate(completion portal)",
          hv_->Delegate(root_->pd(), pd_sel_,
                        hv::Crd::Obj(completion_pt_sel, 0, hv::perm::kCall),
                        comp_sel));

  if (!free_channels_.empty()) {
    // Recycle a closed channel: its ring frame keeps its address (so the
    // server-side mapping — and its paging structures — survive) and its
    // request portal already dispatches with this channel id.
    const std::uint32_t channel_id = free_channels_.back();
    free_channels_.pop_back();
    ChannelState& ch = channels_[channel_id];
    CheckOk("Delegate(ring frame to client)",
            hv_->Delegate(root_->pd(), client_pd_sel,
                          hv::Crd::Mem(ch.shared_page, 0, hv::perm::kRw),
                          ch.shared_page));
    const hv::CapSel client_sel = client->caps().FindFree(hv::kSelFirstFree);
    CheckOk("Delegate(request portal to client)",
            hv_->Delegate(root_->pd(), client_pd_sel,
                          hv::Crd::Obj(ch.request_pt, 0, hv::perm::kCall),
                          client_sel));
    ch.completion_pt = comp_sel;
    ch.outstanding = 0;
    ch.max_outstanding = max_outstanding;
    ch.ring_head = 0;  // A fresh client starts reading at ring index 0.
    ch.open = true;
    out.request_portal = client_sel;
    out.shared_page = ch.shared_page;
    out.channel_id = channel_id;
    return out;
  }

  const auto channel_id = static_cast<std::uint32_t>(channels_.size());

  // Shared completion ring: one frame mapped in both domains.
  const std::uint64_t frame = root_->AllocPages(1);
  CheckOk("Delegate(ring frame to server)",
          hv_->Delegate(root_->pd(), pd_sel_,
                        hv::Crd::Mem(frame, 0, hv::perm::kRw), frame));
  CheckOk("Delegate(ring frame to client)",
          hv_->Delegate(root_->pd(), client_pd_sel,
                        hv::Crd::Mem(frame, 0, hv::perm::kRw), frame));

  // Dedicated request portal for this client (§4.2: per-VMM channels).
  const hv::CapSel pt_sel = root_->FreeSel();
  CheckOk("CreatePt(request portal)",
          hv_->CreatePt(root_->pd(), pt_sel, req_ec_cap_sel_, /*mtd=*/0,
                        channel_id));
  const hv::CapSel client_sel = client->caps().FindFree(hv::kSelFirstFree);
  CheckOk("Delegate(request portal to client)",
          hv_->Delegate(root_->pd(), client_pd_sel,
                        hv::Crd::Obj(pt_sel, 0, hv::perm::kCall), client_sel));

  channels_.push_back(ChannelState{.completion_pt = comp_sel,
                                   .request_pt = pt_sel,
                                   .shared_page = frame,
                                   .outstanding = 0,
                                   .max_outstanding = max_outstanding,
                                   .ring_head = 0,
                                   .open = true});
  out.request_portal = client_sel;
  out.shared_page = frame;
  out.channel_id = channel_id;
  return out;
}

void DiskServer::ShutChannel(std::uint32_t channel_id) {
  if (channel_id < channels_.size()) {
    channels_[channel_id].open = false;
  }
}

void DiskServer::CloseChannel(std::uint32_t channel_id) {
  if (channel_id >= channels_.size() || !channels_[channel_id].open) {
    return;
  }
  ChannelState& ch = channels_[channel_id];
  ch.open = false;
  // Orphan the channel's in-flight requests: the client is gone, nobody
  // will consume the completions. The hardware commands may still be
  // running, so the slots are quarantined until the controller reports
  // them done (quarantine clears in IrqThreadStep).
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if (slots_[s].active && slots_[s].channel == channel_id) {
      if (slots_[s].deadline_event != 0) {
        hv_->machine().events().Cancel(slots_[s].deadline_event);
        slots_[s].deadline_event = 0;
      }
      slots_[s].active = false;
      quarantine_mask_ |= 1u << s;
    }
  }
  ch.outstanding = 0;
  free_channels_.push_back(channel_id);
}

void DiskServer::HandleRequest(std::uint32_t channel_id) {
  hv::Utcb& u = req_ec_->utcb();
  auto reply = [&](Status s, std::uint64_t slot) {
    u.untyped = 2;
    u.words[0] = static_cast<std::uint64_t>(s);
    u.words[1] = slot;
    u.num_typed = 0;
  };
  if (channel_id >= channels_.size() || !channels_[channel_id].open) {
    reply(Status::kDenied, 0);
    return;
  }
  ChannelState& ch = channels_[channel_id];
  if (ch.outstanding >= ch.max_outstanding) {
    ++throttled_;
    reply(Status::kOverflow, 0);
    return;
  }
  if (u.untyped < 5) {
    reply(Status::kBadParameter, 0);
    return;
  }
  const std::uint64_t op = u.words[0];
  const std::uint64_t lba = u.words[1];
  const std::uint64_t sectors = u.words[2];
  const std::uint64_t buffer_page = u.words[3];
  const std::uint64_t cookie = u.words[4];
  if (sectors == 0 || sectors > 0xffff ||
      sectors * hw::kSectorSize > 16 * hw::kPageSize) {
    reply(Status::kBadParameter, 0);
    return;
  }
  // The DMA buffer must have been delegated to this domain (typically as a
  // typed item on this very message) — otherwise the IOMMU would fault the
  // transfer anyway; reject early.
  const std::uint64_t buf_pages =
      (sectors * hw::kSectorSize + hw::kPageMask) >> hw::kPageShift;
  for (std::uint64_t p = 0; p < buf_pages; ++p) {
    if (pd_->mem_space().PermsFor(buffer_page + p) == 0) {
      reply(Status::kDenied, 0);
      return;
    }
  }

  int slot = -1;
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if (!slots_[s].active && (quarantine_mask_ & (1u << s)) == 0) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    reply(Status::kBusy, 0);
    return;
  }

  // Build the command structures in the server's own memory.
  hw::PhysMem& mem = hv_->machine().mem();
  const hw::PhysAddr clb = (clb_page_ << hw::kPageShift) + slot * 32ull;
  const hw::PhysAddr ctba = (ctba_page_ << hw::kPageShift) + slot * 256ull;
  const bool write = op == diskproto::kOpWrite;
  std::uint32_t dw0 = 1u << 16;  // One PRDT entry.
  if (write) {
    dw0 |= 1u << 6;
  }
  (void)mem.Write32(clb, dw0);
  (void)mem.Write32(clb + 8, static_cast<std::uint32_t>(ctba));
  std::uint8_t cfis[64] = {};
  cfis[0] = hw::ahci::kFisH2d;
  cfis[2] = write ? hw::ahci::kCmdWriteDmaExt : hw::ahci::kCmdReadDmaExt;
  for (int i = 0; i < 6; ++i) {
    cfis[4 + i] = static_cast<std::uint8_t>(lba >> (8 * i));
  }
  const auto sect16 = static_cast<std::uint16_t>(sectors);
  std::memcpy(cfis + 12, &sect16, 2);
  (void)mem.Write(ctba, cfis, sizeof(cfis));
  (void)mem.Write64(ctba + 0x80, buffer_page << hw::kPageShift);
  (void)mem.Write32(ctba + 0x80 + 12,
              static_cast<std::uint32_t>(sectors * hw::kSectorSize - 1));
  // The driver's structure setup costs real work.
  hv_->machine().cpu(cpu_).Charge(180);

  slots_[slot] = Slot{.active = true,
                      .channel = channel_id,
                      .cookie = cookie,
                      .buffer_page = buffer_page,
                      .attempts = 0,
                      .generation = next_generation_++,
                      .deadline_event = 0};
  ++ch.outstanding;
  ++issued_;
  if (deadline_ps_ != 0) {
    slots_[slot].deadline_event = hv_->machine().events().ScheduleAfter(
        deadline_ps_,
        sim::EventTag{kDiskServerOwner, kOpDeadline,
                      static_cast<std::uint64_t>(slot), slots_[slot].generation});
  }
  MmioWrite(hw::ahci::kPxCi, 1u << slot);
  reply(Status::kSuccess, static_cast<std::uint64_t>(slot));
}

void DiskServer::IrqThreadStep() {
  if (hv_->SmDown(irq_ec_, kSmSel, /*unmask_gsi=*/true) !=
      hv::Hypervisor::DownResult::kAcquired) {
    return;
  }
  // Acknowledge the controller.
  const std::uint64_t is = MmioRead(hw::ahci::kIs);
  const std::uint64_t px_is = MmioRead(hw::ahci::kPxIs);
  MmioWrite(hw::ahci::kPxIs, px_is);
  MmioWrite(hw::ahci::kIs, is);

  const auto ci = static_cast<std::uint32_t>(MmioRead(hw::ahci::kPxCi));
  // The error register is only consulted when a task-file error actually
  // interrupted — the fault-free path performs no extra device accesses.
  std::uint32_t err = 0;
  if ((px_is & hw::ahci::kPxIsTfes) != 0) {
    err = static_cast<std::uint32_t>(MmioRead(hw::ahci::kPxVs));
    MmioWrite(hw::ahci::kPxVs, err);
  }
  // A quarantined slot leaves quarantine once the hardware finished with
  // it, successfully or not.
  quarantine_mask_ &= ci & ~err;
  if (err != 0) {
    HandleErrorSlots(err);
  }
  CompleteSlots(~ci & ~err);
}

void DiskServer::HandleErrorSlots(std::uint32_t err_mask) {
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if (!slots_[s].active || (err_mask & (1u << s)) == 0) {
      continue;
    }
    Slot& slot = slots_[s];
    if (slot.attempts < max_retries_) {
      ++slot.attempts;
      ++retried_;
      // Exponential backoff, then re-issue: the command structures are
      // still in place, so re-writing the issue bit replays the command.
      const sim::PicoSeconds delay = backoff_ps_ << (slot.attempts - 1);
      hv_->machine().events().ScheduleAfter(
          delay, sim::EventTag{kDiskServerOwner, kOpReissue,
                               static_cast<std::uint64_t>(s), slot.generation});
    } else {
      FailRequest(s, Status::kBadDevice);
    }
  }
}

void DiskServer::NotifyClient(ChannelState& ch, std::uint64_t cookie) {
  if (ch.completion_pt != hv::kInvalidSel && ch.open) {
    hv::Utcb& u = irq_ec_->utcb();
    u.Clear();
    u.untyped = 2;
    u.words[0] = cookie;
    u.words[1] = ch.ring_head;
    (void)hv_->Call(irq_ec_, ch.completion_pt);  // kAbort (dead client) tolerated.
  }
}

void DiskServer::FailRequest(int s, Status status) {
  Slot& slot = slots_[s];
  ChannelState& ch = channels_[slot.channel];
  if (slot.deadline_event != 0) {
    hv_->machine().events().Cancel(slot.deadline_event);
    slot.deadline_event = 0;
  }
  if (status == Status::kTimeout) {
    // The hardware command may still be in flight: park the slot until the
    // controller reports it done so a reused slot cannot complete early.
    quarantine_mask_ |= 1u << s;
  }
  hw::PhysMem& mem = hv_->machine().mem();
  const hw::PhysAddr ring = ch.shared_page << hw::kPageShift;
  const std::uint32_t index =
      ch.ring_head % (hw::kPageSize / sizeof(DiskCompletionRecord));
  const DiskCompletionRecord rec{slot.cookie, static_cast<std::uint64_t>(status)};
  (void)mem.Write(ring + index * sizeof(DiskCompletionRecord), &rec, sizeof(rec));
  ++ch.ring_head;
  slot.active = false;
  --ch.outstanding;
  ++failed_;
  hv_->machine().cpu(cpu_).Charge(60);
  NotifyClient(ch, slot.cookie);
}

void DiskServer::CompleteSlots(std::uint32_t done_mask) {
  hw::PhysMem& mem = hv_->machine().mem();
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if (!slots_[s].active || (done_mask & (1u << s)) == 0) {
      continue;
    }
    Slot& slot = slots_[s];
    ChannelState& ch = channels_[slot.channel];
    if (slot.deadline_event != 0) {
      hv_->machine().events().Cancel(slot.deadline_event);
      slot.deadline_event = 0;
    }
    // Completion record into the shared ring.
    const hw::PhysAddr ring = ch.shared_page << hw::kPageShift;
    const std::uint32_t index =
        ch.ring_head % (hw::kPageSize / sizeof(DiskCompletionRecord));
    const DiskCompletionRecord rec{slot.cookie, 0};
    (void)mem.Write(ring + index * sizeof(DiskCompletionRecord), &rec, sizeof(rec));
    ++ch.ring_head;
    slot.active = false;
    --ch.outstanding;
    ++completed_;
    hv_->machine().cpu(cpu_).Charge(60);

    // Notify the client ("7) completed" in Figure 4).
    NotifyClient(ch, slot.cookie);
  }
}

void DiskServer::DeadlineExpired(int slot, std::uint64_t generation) {
  if (slots_[slot].active && slots_[slot].generation == generation) {
    slots_[slot].deadline_event = 0;
    FailRequest(slot, Status::kTimeout);
  }
}

void DiskServer::ReissueSlot(int slot, std::uint64_t generation) {
  if (slots_[slot].active && slots_[slot].generation == generation) {
    MmioWrite(hw::ahci::kPxCi, 1u << slot);
  }
}

template <class Ar>
void DiskServer::Io(Ar& ar) {
  ar.Verify(static_cast<std::uint32_t>(channels_.size()));
  for (ChannelState& ch : channels_) {
    // Wiring selectors and the ring frame are construction products,
    // verified so the twin must have opened the same channels.
    ar.Verify(ch.completion_pt);
    ar.Verify(ch.request_pt);
    ar.Verify(ch.shared_page);
    ar.Io(ch.outstanding, ch.max_outstanding, ch.ring_head, ch.open);
  }
  ar.Seq(sim::kCount32, free_channels_);
  ar.Io(slots_, next_comp_sel_, issued_, completed_, throttled_, retried_,
        failed_, deadline_ps_, max_retries_, backoff_ps_, next_generation_,
        quarantine_mask_);
  // Completing an active slot indexes the channel table by its channel.
  for (const Slot& slot : slots_) {
    if (slot.active && slot.channel >= channels_.size()) {
      ar.Fail(Status::kBadParameter);
    }
  }
}

Status DiskServer::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status DiskServer::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::services
