#include "src/root/supervisor.h"

#include <algorithm>

namespace nova::root {

namespace {
constexpr sim::EventTag kCheckTag{
    sim::EventQueue::OwnerToken("root.supervisor"), /*op=*/1};
constexpr std::uint64_t kBeatsPerPage = hw::kPageSize / sizeof(std::uint64_t);
}  // namespace

VmmSupervisor::VmmSupervisor(hv::Hypervisor* hv, RootPartitionManager* root,
                             Config config)
    : hv_(hv), root_(root), config_(config) {
  event_owner_ = hv_->machine().events().RegisterOwner(
      kCheckTag.owner,
      [this](const sim::EventTag& tag) -> sim::EventQueue::Callback {
        if (tag.op != kCheckTag.op) {
          return nullptr;
        }
        return [this] { CheckTick(); };
      });
}

Status VmmSupervisor::Watch(vmm::Vmm* vmm, RestartFn on_restart) {
  // A recovered entry's VMM is dead and beats no more: its word is free.
  auto it = std::find_if(watched_.begin(), watched_.end(),
                         [](const Watched& entry) { return entry.recovered; });
  hw::PhysAddr hb_addr = 0;
  if (it != watched_.end()) {
    hb_addr = it->hb_addr;
    *it = Watched{};
  } else {
    const std::uint64_t slot = watched_.size() % kBeatsPerPage;
    if (slot == 0) {
      const std::uint64_t page = root_->AllocPages(1);
      if (page == 0) {
        return Status::kNoMem;
      }
      hb_page_ = page;
    }
    hb_addr = (hb_page_ << hw::kPageShift) + slot * sizeof(std::uint64_t);
    it = watched_.emplace(watched_.end());
  }
  Watched& w = *it;
  w.vmm = vmm;
  w.hb_addr = hb_addr;
  // The teardown selectors are fetched eagerly: once the VMM is dead it can
  // no longer push its VM capability up to the root.
  w.vm_sel = vmm->ExposeVmToRoot();
  w.vmm_sel = vmm->vmm_pd_sel();
  w.on_restart = std::move(on_restart);

  vmm->StartHeartbeat(config_.check_period_ps / 2, w.hb_addr);

  if (!check_running_) {
    check_running_ = true;
    hv_->machine().events().ScheduleAfter(config_.check_period_ps, kCheckTag);
  }
  return Status::kSuccess;
}

void VmmSupervisor::CheckTick() {
  ++ticks_;
  if (config_.checkpoint_every_checks != 0 &&
      ticks_ % config_.checkpoint_every_checks == 0) {
    CheckpointAll();
  }
  CheckAll();
  hv_->machine().events().ScheduleAfter(config_.check_period_ps, kCheckTag);
}

void VmmSupervisor::CheckAll() {
  // Index-based: a restart callback may Watch() the replacement VMM, which
  // can grow (and reallocate) the watch list mid-loop.
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    if (watched_[i].recovered) {
      continue;
    }
    std::uint64_t hb = 0;
    (void)hv_->machine().mem().Read(watched_[i].hb_addr, &hb, sizeof(hb));
    if (hb != watched_[i].last_seen) {
      watched_[i].last_seen = hb;
      watched_[i].stale = 0;
      continue;
    }
    if (++watched_[i].stale >= kStaleChecks) {
      Recover(watched_[i]);
    }
  }
}

void VmmSupervisor::CheckpointAll() {
  // Only checkpoint monitors whose heartbeat was fresh at the last sample:
  // a VMM already suspected dead must not overwrite its last-good state
  // with whatever its wild memory now contains.
  for (Watched& w : watched_) {
    if (w.recovered || w.stale != 0) {
      continue;
    }
    w.ckpt_regs = w.vmm->vahci().SaveRegs();
    w.has_checkpoint = true;
    ++checkpoints_;
  }
}

void VmmSupervisor::Recover(Watched& w) {
  // Checkpoint everything that dies with the domains: the vCPU's
  // architectural state and the guest-programmed virtual-controller
  // registers. Guest RAM needs no copying — the frames fall back to the
  // root when the mappings are revoked and are re-granted in place.
  RecoveryInfo info;
  // The vCPU object lives in the kernel and is intact regardless of how
  // the VMM died, so the architectural state is always read at detection
  // time. The device model lives in the crashed VMM's own memory: prefer
  // the last healthy-time checkpoint when one exists — the driver replays
  // anything issued past it through the controller's abort path.
  info.gstate = w.vmm->gstate(0);
  info.guest_base_page = w.vmm->guest_base_page();
  if (w.has_checkpoint) {
    info.vahci_regs = w.ckpt_regs;
    info.regs_from_checkpoint = true;
  } else {
    info.vahci_regs = w.vmm->vahci().SaveRegs();
  }
  last_detect_latency_ps_ = kStaleChecks * config_.check_period_ps;

  // Teardown through the ordinary hypercall interface: child domains first
  // (the VM), then the VMM itself. Revocation recursively strips every
  // mapping either domain delegated onward; the kernel reclaims shadow
  // contexts, TLB tags, paging structures and scheduling contexts.
  (void)hv_->DestroyPd(root_->pd(), w.vm_sel);
  (void)hv_->DestroyPd(root_->pd(), w.vmm_sel);

  w.recovered = true;
  ++recoveries_;
  const RestartFn restart = std::move(w.on_restart);
  if (restart) {
    restart(info);  // May Watch() the replacement — `w` is dead after this.
  }
}

}  // namespace nova::root
