// Discrete-event queue driving device-level simulation.
//
// Devices (disk, NIC, timers) schedule events at absolute picosecond
// timestamps; the machine's run loop drains events that are due as CPU
// time advances. Events fire in strictly non-decreasing time order with
// FIFO ordering among events scheduled for the same instant.
//
// Snapshot support by construction: an event is an `EventTag`, a stable
// (owner, op, a, b) description, and the owner's registered factory
// builds its closure from the tag both when the event is scheduled and
// when a snapshot restores it, so a restored event runs the closure the
// live one ran. Saving writes the exact (when, seq, id, tag) of each
// pending event; seq and id are restored verbatim so FIFO ties and future
// Cancel() ids behave identically post-restore.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/sim/time.h"

namespace nova::sim {

// Serializable description of a pending event. `owner` is an OwnerToken()
// of the component name ("hw.disk", "vmm.vm0.hb", ...); `op` distinguishes
// the owner's event flavours; `a`/`b` carry the closure's parameters
// (request ids, generation counters, entry indices). OwnerToken() never
// returns 0, so the empty `EventTag{}` names no owner and cannot be
// scheduled.
struct EventTag {
  std::uint64_t owner = 0;
  std::uint32_t op = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;
  // Builds the closure an owner's event runs from its tag.
  using Factory = std::function<Callback(const EventTag&)>;

  // Stable 64-bit token for a component name (FNV-1a; never returns 0).
  static constexpr std::uint64_t OwnerToken(std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h == 0 ? 1 : h;
  }

  // Schedule the event `tag` at absolute time `when`; times in the past
  // fire on the next Advance(). The closure is built now by the owner's
  // factory. Aborts, printing the owner token to stderr, when the owner
  // has no factory or its factory returns an empty closure. Returns an id
  // usable with Cancel().
  EventId ScheduleAt(PicoSeconds when, const EventTag& tag);
  EventId ScheduleAfter(PicoSeconds delay, const EventTag& tag) {
    return ScheduleAt(now_ + delay, tag);
  }

  // Register the closure factory for an owner token. Every component that
  // schedules events calls this before its first ScheduleAt, normally in
  // its constructor; LoadState rebuilds restored events through the same
  // factories. A later registration for the same owner replaces the
  // earlier one.
  void RegisterOwner(std::uint64_t owner, Factory fn) {
    factories_[owner] = std::move(fn);
  }

  // Drop the owner's factory and cancel its pending events. Owners that
  // die before the queue call this from their destructor, so no closure
  // holding a dangling `this` is left to fire.
  void Unregister(std::uint64_t owner);

  // Cancel a pending event; returns false if it already fired or is unknown.
  bool Cancel(EventId id);

  // Advance simulated time to `t`, firing every event due at or before `t`.
  // Callbacks may schedule further events, including at times <= t.
  void AdvanceTo(PicoSeconds t);

  // Fire the single earliest pending event (if any), jumping time forward
  // to its deadline. Returns false when the queue is empty. Used by idle
  // loops: when all CPUs halt, time skips to the next device event.
  bool RunOne();

  PicoSeconds now() const { return now_; }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  PicoSeconds NextDeadline() const;  // Only valid when !empty().

  // Saving serializes every live pending event. Loading drops all pending
  // events (including the twin's construction-time ones) and rebuilds the
  // saved set through the registered factories (kBadCapability for an
  // owner with none: snapshot bytes are outside input). now_/next_seq_/
  // next_id_ are restored so post-restore scheduling is bit-identical.
  Status SaveState(SnapWriter& w) const;
  Status LoadState(SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct Event {
    PicoSeconds when;
    std::uint64_t seq;
    EventId id;
    EventTag tag;
    Callback cb;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(when, seq, id, tag.owner, tag.op, tag.a, tag.b);
    }
  };

  // The owner's closure for `tag`, or an empty one when it has no factory.
  Callback Bind(const EventTag& tag) const;
  void Push(Event ev);
  Event Pop();
  bool IsCancelled(EventId id) const;
  void PopCancelled() const;

  // Min-heap on (when, seq) kept with std::push_heap/pop_heap, so the
  // pending events stay scannable for Unregister and Io.
  mutable std::vector<Event> heap_;
  mutable std::vector<EventId> cancelled_;
  PicoSeconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  std::unordered_map<std::uint64_t, Factory> factories_;
};

}  // namespace nova::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
