#include "src/sim/event_queue.h"

#include <algorithm>

namespace nova::sim {

EventQueue::EventId EventQueue::ScheduleAtTagged(PicoSeconds when,
                                                 EventTag tag, Callback cb) {
  const EventId id = next_id_++;
  heap_.push(Event{when, next_seq_++, id, tag, std::move(cb)});
  ++live_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // Lazy deletion: remember the id and skip it when it reaches the top.
  if (id == 0 || id >= next_id_) {
    return false;
  }
  if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end()) {
    return false;
  }
  cancelled_.push_back(id);
  if (live_ > 0) {
    --live_;
  }
  return true;
}

void EventQueue::PopCancelled() const {
  while (!heap_.empty()) {
    auto it = std::find(cancelled_.begin(), cancelled_.end(), heap_.top().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    heap_.pop();
  }
}

void EventQueue::AdvanceTo(PicoSeconds t) {
  for (;;) {
    PopCancelled();
    if (heap_.empty() || heap_.top().when > t) {
      break;
    }
    Event ev = heap_.top();
    heap_.pop();
    --live_;
    now_ = std::max(now_, ev.when);
    ev.cb();
  }
  now_ = std::max(now_, t);
}

bool EventQueue::RunOne() {
  PopCancelled();
  if (heap_.empty()) {
    return false;
  }
  Event ev = heap_.top();
  heap_.pop();
  --live_;
  now_ = std::max(now_, ev.when);
  ev.cb();
  return true;
}

PicoSeconds EventQueue::NextDeadline() const {
  PopCancelled();
  return heap_.top().when;
}

template <class Ar>
void EventQueue::Io(Ar& ar) {
  // Live events in fire order: saved from a drained copy of the heap
  // (std::function is copyable), skipping lazily-cancelled entries so the
  // restored queue starts clean.
  std::vector<Event> pending;
  if constexpr (Ar::kLoading) {
    heap_ = {};
    cancelled_.clear();
    live_ = 0;
  } else {
    for (auto copy = heap_; !copy.empty(); copy.pop()) {
      const Event& ev = copy.top();
      if (std::find(cancelled_.begin(), cancelled_.end(), ev.id) !=
          cancelled_.end()) {
        continue;
      }
      if (ev.tag.owner == 0) {
        ar.Fail();  // Untagged closure: not restorable.
      }
      pending.push_back(ev);
    }
  }
  ar.Io(now_, next_seq_, next_id_);
  ar.Seq(kCount64, pending);
  if constexpr (Ar::kLoading) {
    for (Event& ev : pending) {
      auto it = rebinders_.find(ev.tag.owner);
      if (it != rebinders_.end()) {
        ev.cb = it->second(ev.tag);
      }
      if (!ev.cb) {
        ar.Fail(Status::kBadCapability);
        return;
      }
      heap_.push(std::move(ev));
      ++live_;
    }
  }
}

Status EventQueue::SaveState(SnapWriter& w) const { return w.Save(*this); }
Status EventQueue::LoadState(SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::sim
