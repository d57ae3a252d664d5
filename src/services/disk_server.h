// User-level disk server (Figure 4 of the paper).
//
// Owns the AHCI host controller through direct assignment: its protection
// domain holds the controller's MMIO window, and the IOMMU translates the
// controller's DMA with the server's own page table — so the driver can
// only reach memory that was explicitly delegated to it (its command
// structures and the clients' DMA buffers).
//
// Clients (VMMs) open a dedicated channel each. A request is one IPC that
// carries the DMA buffer pages as typed delegation items; the server
// programs the hardware and replies immediately ("issued"). Completions
// arrive on the controller's interrupt semaphore; the server writes a
// completion record into the channel's shared memory page and notifies the
// client through its completion portal.
#ifndef SRC_SERVICES_DISK_SERVER_H_
#define SRC_SERVICES_DISK_SERVER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/hv/kernel.h"
#include "src/root/platform.h"
#include "src/root/root_pm.h"

namespace nova::services {

// Request message layout (UTCB words).
namespace diskproto {
constexpr std::uint64_t kOpRead = 0;
constexpr std::uint64_t kOpWrite = 1;
// words[0]=op, words[1]=lba, words[2]=sectors, words[3]=buffer GPA-page
// (identity frame number), words[4]=cookie.
// Reply: words[0]=status, words[1]=slot.
}  // namespace diskproto

// One completion record in the channel's shared page.
struct DiskCompletionRecord {
  std::uint64_t cookie;
  std::uint64_t status;  // 0 = success.
};

class DiskServer {
 public:
  // Creates the server domain, claims the AHCI controller and its
  // interrupt, allocates command memory, and starts the interrupt thread.
  DiskServer(hv::Hypervisor* hv, root::RootPartitionManager* root,
             std::uint32_t cpu, std::uint8_t irq_prio = 40);

  struct Channel {
    hv::CapSel request_portal;   // In the *client's* capability space.
    std::uint64_t shared_page;   // Frame of the completion ring (client-visible).
    std::uint32_t channel_id = 0;
  };

  // Open a channel for `client_pd_sel` (selector in the root's space).
  // `completion_pt_sel` is a portal (in the root's space, created by the
  // client's VMM and delegated to root) the server calls on completion.
  // `max_outstanding` is the per-channel throttle (§4.2, VMM attacks).
  Channel OpenChannel(hv::CapSel client_pd_sel, hv::CapSel completion_pt_sel,
                      std::uint32_t max_outstanding = 32);

  // Administrative shutdown of a misbehaving channel: further requests are
  // rejected (§4.2 denial-of-service defence).
  void ShutChannel(std::uint32_t channel_id);

  // Retire a channel whose client died (VMM crash): in-flight slots are
  // orphaned — quarantined until the hardware finishes with them, their
  // completions dropped — and the channel's ring frame and request portal
  // are recycled by the next OpenChannel, so restart cycles do not grow
  // the server's address space.
  void CloseChannel(std::uint32_t channel_id);

  hv::CapSel pd_sel() const { return pd_sel_; }
  hv::Pd* pd() { return pd_; }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t requests_completed() const { return completed_; }
  std::uint64_t requests_throttled() const { return throttled_; }
  std::uint64_t requests_retried() const { return retried_; }
  std::uint64_t requests_failed() const { return failed_; }

  // Robustness knobs, all off by default (the fault-free fast path performs
  // no extra device accesses or events). A non-zero `deadline_ps` bounds
  // every request end-to-end: if neither success nor error arrived by then,
  // the request is retired with a kTimeout completion. An errored slot is
  // re-issued up to `max_retries` times with exponential backoff before a
  // kBadDevice completion is delivered. Either way a request always ends
  // in a typed completion record — the server never hangs a client.
  void SetRequestDeadline(sim::PicoSeconds deadline_ps,
                          std::uint32_t max_retries = 0,
                          sim::PicoSeconds backoff_ps = 0);

  // Mutable server state: channel cursors, slot table, counters and the
  // deadline/retry configuration. Channel wiring (portals, ring frames)
  // is rebuilt by the twin's OpenChannel calls and verified on load.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct ChannelState {
    hv::CapSel completion_pt = hv::kInvalidSel;  // In the server's space.
    hv::CapSel request_pt = hv::kInvalidSel;     // In the root's space.
    std::uint64_t shared_page = 0;
    std::uint32_t outstanding = 0;
    std::uint32_t max_outstanding = 0;
    std::uint32_t ring_head = 0;
    bool open = false;
  };
  struct Slot {
    bool active = false;
    std::uint32_t channel = 0;
    std::uint64_t cookie = 0;
    std::uint64_t buffer_page = 0;
    std::uint32_t attempts = 0;
    std::uint64_t generation = 0;   // Guards stale deadline/retry events.
    std::uint64_t deadline_event = 0;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(active, channel, cookie, buffer_page, attempts, generation,
            deadline_event);
    }
  };

  void HandleRequest(std::uint32_t channel_id);
  void IrqThreadStep();
  void CompleteSlots(std::uint32_t done_mask);
  void HandleErrorSlots(std::uint32_t err_mask);
  // Retire a request with a typed error completion record.
  void FailRequest(int slot, Status status);
  void NotifyClient(ChannelState& ch, std::uint64_t cookie);
  // Tagged-event bodies ("svc.disk", op 1 = deadline, op 2 = re-issue);
  // both are generation-guarded so stale events are inert.
  void DeadlineExpired(int slot, std::uint64_t generation);
  void ReissueSlot(int slot, std::uint64_t generation);

  std::uint64_t MmioRead(std::uint64_t offset);
  void MmioWrite(std::uint64_t offset, std::uint64_t value);

  hv::Hypervisor* hv_;
  root::RootPartitionManager* root_;
  std::uint32_t cpu_;
  hv::Pd* pd_ = nullptr;
  hv::CapSel pd_sel_ = hv::kInvalidSel;
  hv::Ec* irq_ec_ = nullptr;
  hv::Ec* req_ec_ = nullptr;

  static constexpr hv::CapSel kSmSel = 40;   // GSI semaphore in server space.
  static constexpr hv::CapSel kCompBase = 100;  // Completion portals.
  hv::CapSel req_ec_cap_sel_ = hv::kInvalidSel;  // Handler EC (root's space).

  std::uint64_t clb_page_ = 0;   // Command list frame (identity).
  std::uint64_t ctba_page_ = 0;  // Command tables (one page per slot group).

  std::vector<ChannelState> channels_;
  std::vector<std::uint32_t> free_channels_;  // Closed, recyclable ids.
  std::array<Slot, hw::ahci::kNumSlots> slots_{};
  std::uint32_t next_comp_sel_ = kCompBase;

  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t throttled_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t failed_ = 0;

  sim::PicoSeconds deadline_ps_ = 0;  // 0 = deadlines/retries disabled.
  std::uint32_t max_retries_ = 0;
  sim::PicoSeconds backoff_ps_ = 0;
  std::uint64_t next_generation_ = 1;
  // Slots retired by deadline while the hardware command was still in
  // flight: unusable until the controller reports the command done.
  std::uint32_t quarantine_mask_ = 0;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::services

#endif  // SRC_SERVICES_DISK_SERVER_H_
