#include "src/sim/fault.h"

namespace nova::sim {

namespace {
// Tag vocabulary for the plan's activation events.
constexpr std::uint32_t kOpActivate = 1;
}  // namespace

void FaultPlan::set_tracer(Tracer* t) {
  tracer_ = t;
  for (int i = 0; i < kNumFaultKinds; ++i) {
    trace_fire_[i] = t->Intern(
        std::string("fault:") + FaultKindName(static_cast<FaultKind>(i)));
  }
}

void FaultPlan::Arm(EventQueue* events) {
  armed_ = true;
  events->RegisterOwner(
      EventQueue::OwnerToken("sim.faultplan"), [this](const EventTag& tag) {
        const std::size_t i = static_cast<std::size_t>(tag.a);
        return [this, i] { entries_[i].active = true; };
      });
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    if (entry.ev.at <= events->now()) {
      entry.active = true;
    } else {
      events->ScheduleAt(
          entry.ev.at,
          EventTag{EventQueue::OwnerToken("sim.faultplan"), kOpActivate,
                   static_cast<std::uint64_t>(i), 0});
    }
  }
}

bool FaultPlan::ShouldFault(FaultKind kind, std::string_view target) {
  for (Entry& entry : entries_) {
    if (!entry.active || entry.ev.kind != kind) {
      continue;
    }
    if (!entry.ev.target.empty() && entry.ev.target != target) {
      continue;
    }
    if (entry.ev.rate < 1.0 && !rng_.Chance(entry.ev.rate)) {
      continue;
    }
    if (entry.ev.count != 0 && --entry.ev.count == 0) {
      entry.active = false;
    }
    ++injected_[static_cast<int>(kind)];
    tracer_->Instant(TraceCat::kFault, trace_fire_[static_cast<int>(kind)],
                     static_cast<std::uint64_t>(kind));
    return true;
  }
  return false;
}

bool FaultPlan::InWindow(FaultKind kind, std::string_view target,
                         PicoSeconds now) const {
  if (!armed_) {
    return false;
  }
  for (const Entry& entry : entries_) {
    if (entry.ev.kind != kind || entry.ev.window_ps == 0) {
      continue;
    }
    if (!entry.ev.target.empty() && entry.ev.target != target) {
      continue;
    }
    if (now >= entry.ev.at && now < entry.ev.at + entry.ev.window_ps) {
      return true;
    }
  }
  return false;
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (int i = 0; i < kNumFaultKinds; ++i) {
    total += injected_[i];
  }
  return total;
}

}  // namespace nova::sim
