// Lightweight statistics primitives used by the hypervisor, the device
// models and the benchmark harnesses: named counters and busy/idle
// utilization tracking.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/sim/time.h"

namespace nova::sim {

// Monotonic event counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  void Reset() { value_ = 0; }
  std::uint64_t value() const { return value_; }

  Status SaveState(SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(value_);
  }

 private:
  std::uint64_t value_ = 0;
};

// Tracks the fraction of wall-clock (simulated) time a resource was busy.
// Used to report the CPU-utilization curves of Figures 6 and 7.
class UtilizationTracker {
 public:
  void SetBusy(PicoSeconds now, bool busy);
  // Close the current interval at `now` and return busy fraction since the
  // last Reset.
  double Utilization(PicoSeconds now) const;
  void Reset(PicoSeconds now);

  PicoSeconds busy_time(PicoSeconds now) const;

  Status SaveState(SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(start_, busy_accum_, last_change_, busy_);
  }

 private:
  PicoSeconds start_ = 0;
  PicoSeconds busy_accum_ = 0;
  PicoSeconds last_change_ = 0;
  bool busy_ = false;
};

// Named counter registry; benchmark harnesses print these tables directly
// (Table 2 of the paper is one such dump).
class StatRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  std::uint64_t Value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }
  void ResetAll() {
    for (auto& [name, c] : counters_) c.Reset();
  }
  const std::map<std::string, Counter>& counters() const { return counters_; }

  Status SaveState(SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(SnapReader& r) { return r.Restore(*this); }
  // Loading inserts counters the twin has not referenced yet and never
  // erases: registered Counter addresses stay stable (std::map nodes), so
  // cached references survive.
  template <class Ar>
  void Io(Ar& ar) {
    ar.Keyed(kCount32, counters_);
  }

 private:
  std::map<std::string, Counter> counters_;
};

}  // namespace nova::sim

#endif  // SRC_SIM_STATS_H_
