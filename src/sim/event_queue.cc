#include "src/sim/event_queue.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace nova::sim {

EventQueue::Callback EventQueue::Bind(const EventTag& tag) const {
  const auto it = factories_.find(tag.owner);
  return it == factories_.end() ? nullptr : it->second(tag);
}

EventQueue::EventId EventQueue::ScheduleAt(PicoSeconds when,
                                           const EventTag& tag) {
  Callback cb = Bind(tag);
  if (!cb) {
    std::fprintf(stderr,
                 "sim::EventQueue: cannot schedule op %u of owner 0x%016llx: "
                 "%s\n",
                 tag.op, static_cast<unsigned long long>(tag.owner),
                 factories_.count(tag.owner) == 0 ? "no factory registered"
                                                  : "its factory built no closure");
    std::abort();
  }
  const EventId id = next_id_++;
  Push(Event{when, next_seq_++, id, tag, std::move(cb)});
  ++live_;
  return id;
}

void EventQueue::Unregister(std::uint64_t owner) {
  factories_.erase(owner);
  for (const Event& ev : heap_) {
    if (ev.tag.owner == owner) {
      (void)Cancel(ev.id);
    }
  }
}

bool EventQueue::Cancel(EventId id) {
  // Lazy deletion: remember the id and skip it when it reaches the top.
  if (id == 0 || id >= next_id_ || IsCancelled(id)) {
    return false;
  }
  cancelled_.push_back(id);
  if (live_ > 0) {
    --live_;
  }
  return true;
}

void EventQueue::Push(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

EventQueue::Event EventQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

bool EventQueue::IsCancelled(EventId id) const {
  return std::find(cancelled_.begin(), cancelled_.end(), id) !=
         cancelled_.end();
}

void EventQueue::PopCancelled() const {
  while (!heap_.empty()) {
    auto it = std::find(cancelled_.begin(), cancelled_.end(), heap_.front().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

void EventQueue::AdvanceTo(PicoSeconds t) {
  for (;;) {
    PopCancelled();
    if (heap_.empty() || heap_.front().when > t) {
      break;
    }
    Event ev = Pop();
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
  Event ev = Pop();
  --live_;
  now_ = std::max(now_, ev.when);
  ev.cb();
  return true;
}

PicoSeconds EventQueue::NextDeadline() const {
  PopCancelled();
  return heap_.front().when;
}

template <class Ar>
void EventQueue::Io(Ar& ar) {
  // Live events in fire order, skipping lazily-cancelled entries so the
  // restored queue starts clean.
  std::vector<Event> pending;
  if constexpr (Ar::kLoading) {
    heap_.clear();
    cancelled_.clear();
    live_ = 0;
  } else {
    for (const Event& ev : heap_) {
      if (!IsCancelled(ev.id)) {
        pending.push_back(ev);
      }
    }
    std::sort(pending.begin(), pending.end(),
              [](const Event& x, const Event& y) { return y > x; });
  }
  ar.Io(now_, next_seq_, next_id_);
  ar.Seq(kCount64, pending);
  if constexpr (Ar::kLoading) {
    for (Event& ev : pending) {
      ev.cb = Bind(ev.tag);
      if (!ev.cb) {
        ar.Fail(Status::kBadCapability);
        return;
      }
      Push(std::move(ev));
      ++live_;
    }
  }
}

Status EventQueue::SaveState(SnapWriter& w) const { return w.Save(*this); }
Status EventQueue::LoadState(SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::sim
