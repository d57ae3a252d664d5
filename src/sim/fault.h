// Deterministic fault injection.
//
// A FaultPlan is a seeded schedule of fault activations driven off the
// simulation event queue: each entry names a fault kind, a target (device
// or VMM name), an activation time, an injection budget and a per-
// opportunity rate. Components that can fail hold an optional FaultPlan
// pointer and consult it at their injection points; a null plan is the
// common case and costs nothing — no RNG draws, no events, no charges —
// so a disarmed build is bit-identical to one without the machinery.
//
// Determinism: activations are ordinary scheduled events, and rate draws
// come from the plan's own xoshiro stream, consumed only at matching
// injection opportunities. Same seed + same schedule + same workload
// => same faults, run after run.
#ifndef SRC_SIM_FAULT_H_
#define SRC_SIM_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace nova::sim {

enum class FaultKind : std::uint8_t {
  kDiskMediaError,  // Disk request completes with a media error.
  kNicDrop,         // Inbound frame silently dropped.
  kNicCorrupt,      // Inbound frame delivered with a flipped byte.
  kDmaUnmapped,     // Device DMA redirected to an unmapped/protected iova.
  kVmmCrash,        // User-level VMM stops responding (heartbeat ceases).
  kAllocFail,       // Kernel frame allocation fails transiently.
  kLinkPartition,   // Network link partitioned: every frame dropped for a
                    // timed window (`window_ps`), then the link heals.
};

constexpr int kNumFaultKinds = 7;

constexpr const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kDiskMediaError: return "disk-media-error";
    case FaultKind::kNicDrop: return "nic-drop";
    case FaultKind::kNicCorrupt: return "nic-corrupt";
    case FaultKind::kDmaUnmapped: return "dma-unmapped";
    case FaultKind::kVmmCrash: return "vmm-crash";
    case FaultKind::kAllocFail: return "alloc-fail";
    case FaultKind::kLinkPartition: return "link-partition";
  }
  return "?";
}

struct FaultEvent {
  PicoSeconds at = 0;       // Activation time (absolute).
  FaultKind kind = FaultKind::kDiskMediaError;
  std::string target;       // Component name; empty matches any target.
  std::uint64_t count = 1;  // Injection budget once active; 0 = unlimited.
  double rate = 1.0;        // Probability per matching opportunity.
  // Window faults (kLinkPartition): the fault holds for this many
  // picoseconds after `at`, then heals. Window faults are pure time
  // predicates — InWindow() consults them without drawing RNG or mutating
  // budgets, so a component polling the plan stays digest-invisible.
  PicoSeconds window_ps = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 1) : rng_(seed) {}

  // Add an entry to the schedule. Call before Arm().
  void Schedule(FaultEvent ev) { entries_.push_back({std::move(ev), false}); }

  // Activate the schedule: entries whose time has come switch on via
  // ordinary queue events. Entries at or before now() activate immediately.
  void Arm(EventQueue* events);

  bool armed() const { return armed_; }

  // Consult the plan at an injection opportunity. Returns true when an
  // active matching entry with remaining budget fires (decrementing its
  // budget and recording the injection).
  bool ShouldFault(FaultKind kind, std::string_view target);

  // Pure time-window query for window faults (kLinkPartition): true when
  // `now` falls inside a matching entry's [at, at + window_ps) interval.
  // Never draws RNG and never mutates budgets — callers that must stay
  // digest-invisible (the migration driver) use this form.
  bool InWindow(FaultKind kind, std::string_view target,
                PicoSeconds now) const;

  std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<int>(kind)];
  }
  std::uint64_t total_injected() const;

  // Snapshot the injection cursor: RNG stream position, per-entry
  // budgets/activation, injection counts. Entries themselves must match
  // between save and load (the twin schedules the identical plan).
  Status SaveState(SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(rng_, armed_, injected_);
    ar.Verify(static_cast<std::uint32_t>(entries_.size()));
    for (Entry& e : entries_) {
      ar.Io(e.ev.at, e.ev.kind, e.ev.target, e.ev.count, e.ev.rate,
            e.ev.window_ps, e.active);
    }
  }

 private:
  struct Entry {
    FaultEvent ev;
    bool active = false;
  };

  Rng rng_;
  std::vector<Entry> entries_;
  bool armed_ = false;
  std::uint64_t injected_[kNumFaultKinds] = {};
  EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::sim

#endif  // SRC_SIM_FAULT_H_
