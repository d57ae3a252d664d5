// Host-side measurement plumbing shared by the benchmark's workloads: the
// host clock, host-time spans recorded in a second sim::Tracer, sample
// statistics, the simulated-statistics digest and the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/sim/trace.h"

namespace nova::perfbench {

// Host wall time (steady clock) in picoseconds since the first call: the
// unit sim::Tracer records carry, so host spans load in Perfetto beside
// the simulated trace.
sim::PicoSeconds HostNowPs();

inline double PsToSeconds(sim::PicoSeconds ps) {
  return static_cast<double>(ps) / 1e12;
}

// Chrome trace thread ids of the host-span tracer: one per layer the
// benchmark calls into.
enum class Layer : std::uint8_t { kRoot = 0, kHv, kServices, kSim, kHw };

// Host-time spans around the benchmark's own calls into the layers. This
// is a second sim::Tracer whose records are stamped with host time; its
// TraceReport sink folds every record, so per-name counts and host-time
// totals cover the whole run while the ring keeps the tail for export.
class HostTrace {
 public:
  // `capacity` records stay in the ring for the Chrome export.
  explicit HostTrace(std::size_t capacity);
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  // Spans are recorded only while enabled (traced episodes).
  void set_enabled(bool on) { tracer_.set_enabled(on); }
  std::uint16_t Intern(const std::string& name) { return tracer_.Intern(name); }

  // RAII span stamped with host time; `index` groups the spans of one
  // operation (a migration) in Perfetto's args view.
  auto Span(std::uint16_t name, Layer layer, std::uint64_t index = 0) {
    return sim::ScopedSpan(&tracer_, sim::TraceCat::kSched, name,
                           static_cast<std::uint8_t>(layer),
                           [] { return HostNowPs(); }, index, 0);
  }
  // A span whose bounds the caller already measured.
  void Record(std::uint16_t name, Layer layer, sim::PicoSeconds begin,
              sim::PicoSeconds end, std::uint64_t index = 0);

  // Mean host milliseconds per span of `name` (0 when none was recorded).
  // The first call folds the span stream: spans recorded afterwards are
  // still exported but not counted.
  double MeanMs(const std::string& name);
  bool WriteChromeJson(const std::string& path) const {
    return tracer_.WriteChromeJsonFile(path);
  }

 private:
  sim::Tracer tracer_;
  sim::TraceReport report_;
  bool folded_ = false;
  std::map<std::string, sim::TraceReport::Entry> rows_;  // Once folded.
};

// Sample statistics (linear interpolation between order statistics).
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Host seconds of a fixed reference computation: probes and full scans of
// a cache-resident hash map, the access mix that leads the simulator's
// profile. No change to the simulator touches it, so dividing an episode's
// host time by it cancels the shared machine's changing speed.
double ReferenceSeconds();

// Peak resident set of this process in MiB (VmHWM).
double PeakRssMib();

// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Simulated statistics of one episode, by metric name.
using SimStats = std::map<std::string, double>;

// FNV-1a over every (name, value) pair in name order: two runs with equal
// digests measured the same simulated behaviour.
std::uint64_t SimDigest(const SimStats& stats);

// The result line: one JSON object with exactly the keys correct,
// attempted, failed and metrics. A failed run reports no metrics.
void PrintResult(std::FILE* f, bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const Metrics& metrics);

}  // namespace nova::perfbench

#endif  // PERFBENCH_HARNESS_H_
