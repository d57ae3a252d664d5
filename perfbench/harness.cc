#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "src/sim/snapshot.h"

namespace nova::perfbench {
namespace {

volatile std::uint64_t reference_sink = 0;

}  // namespace

sim::PicoSeconds HostNowPs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  return static_cast<sim::PicoSeconds>(ns.count()) * 1000;
}

HostTrace::HostTrace(std::size_t capacity) : tracer_(nullptr, capacity) {
  tracer_.set_sink(&report_);
}

void HostTrace::Record(std::uint16_t name, Layer layer, sim::PicoSeconds begin,
                       sim::PicoSeconds end, std::uint64_t index) {
  const auto tid = static_cast<std::uint8_t>(layer);
  tracer_.BeginAt(begin, sim::TraceCat::kSched, name, tid, index);
  tracer_.EndAt(end, sim::TraceCat::kSched, name, tid, index);
}

double HostTrace::MeanMs(const std::string& name) {
  if (!folded_) {
    // The ring keeps its records for the Chrome export; folding the
    // retained window once completes the sink's per-name totals.
    report_.FoldRemaining(tracer_);
    rows_ = report_.Rows(tracer_);
    folded_ = true;
  }
  const auto it = rows_.find(name);
  if (it == rows_.end() || it->second.count == 0) {
    return 0;
  }
  return static_cast<double>(it->second.total_ps) / 1e9 /
         static_cast<double>(it->second.count);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ReferenceSeconds() {
  // A hash map the size of a full TLB: random finds plus full scans for the
  // least value, the shape of Tlb::Lookup and Tlb::EvictIfNeeded.
  constexpr std::uint64_t kKeys = 544;
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::uint64_t, std::uint64_t>();
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      (*m)[k * 0x9e3779b97f4a7c15ull] = k * 7919 % kKeys;
    }
    return m;
  }();
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::uint64_t sum = 0;
  const sim::PicoSeconds t0 = HostNowPs();
  for (int i = 0; i < 2800; ++i) {
    std::uint64_t least = ~0ull;
    for (const auto& [key, value] : *map) {
      least = std::min(least, value);
    }
    sum += least;
    for (int j = 0; j < 100; ++j) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += map->find((x % kKeys) * 0x9e3779b97f4a7c15ull)->second;
    }
  }
  const sim::PicoSeconds t1 = HostNowPs();
  reference_sink = sum;  // Keeps the loop from being elided.
  return PsToSeconds(t1 - t0);
}

double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t SimDigest(const SimStats& stats) {
  std::uint64_t h = sim::kSnapFnvOffset;
  for (const auto& [name, value] : stats) {
    h = sim::SnapFnv1a(reinterpret_cast<const std::uint8_t*>(name.data()),
                       name.size(), h);
    std::uint8_t bits[sizeof value];
    std::memcpy(bits, &value, sizeof value);
    h = sim::SnapFnv1a(bits, sizeof bits, h);
  }
  return h;
}

void PrintResult(std::FILE* f, bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const Metrics& metrics) {
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    // JSON has no NaN or infinity; a non-finite value is a harness bug
    // and must not masquerade as a measurement.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  std::fflush(f);
}

}  // namespace nova::perfbench
