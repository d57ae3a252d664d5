#include "src/sim/stats.h"

namespace nova::sim {

void UtilizationTracker::SetBusy(PicoSeconds now, bool busy) {
  if (busy == busy_) {
    return;
  }
  if (busy_) {
    busy_accum_ += now - last_change_;
  }
  busy_ = busy;
  last_change_ = now;
}

double UtilizationTracker::Utilization(PicoSeconds now) const {
  const PicoSeconds total = now - start_;
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time(now)) / static_cast<double>(total);
}

PicoSeconds UtilizationTracker::busy_time(PicoSeconds now) const {
  PicoSeconds busy = busy_accum_;
  if (busy_) {
    busy += now - last_change_;
  }
  return busy;
}

void UtilizationTracker::Reset(PicoSeconds now) {
  start_ = now;
  busy_accum_ = 0;
  last_change_ = now;
}

}  // namespace nova::sim
