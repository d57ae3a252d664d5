// The benchmark's four workloads and the run protocol around them.
//
// A run measures for a fixed host-time budget. It repeats one fixed-size
// episode — freshly built node(s), then the workload to completion — so
// every episode of one seed is simulated identically, and reports medians
// over episodes. An untraced run gives the end-to-end metrics; a traced
// run (machine tracer on, host spans, timed scheduler steps, probes) gives
// the per-layer ones. README.md explains each workload and metric.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"
#include "src/sim/time.h"

namespace nova::perfbench {

enum class WorkloadKind { kCompileEpt, kCompileShadow, kDisk4k, kMigrate };

// False for an unknown name.
bool ParseWorkload(const std::string& name, WorkloadKind* out);

struct Options {
  WorkloadKind workload = WorkloadKind::kCompileEpt;
  std::uint64_t seed = 42;   // CompileWorkload::Config::seed; 42 = the figures'.
  double seconds = 10;       // Host time to spend measuring.
  bool trace = false;        // Per-layer run instead of end-to-end.
  // Traced run only: write host spans to <prefix>.host.json and the last
  // traced episode's simulated trace to <prefix>.sim.json (Chrome JSON).
  std::string chrome_trace;

  // Episode size. The defaults are the benchmark's; the self-test sets the
  // figures' sizes.
  std::uint64_t compile_units = 12000;  // Figure 5's run length.
  std::uint64_t disk_requests = 10000;
  // Absolute simulated deadline of an episode's run: an episode that has
  // not finished by then fails its output check.
  sim::PicoSeconds sim_deadline = sim::Seconds(120);
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;  // Compile units, disk requests or migrations.
  std::uint64_t failed = 0;     // All of them when any output check failed.
  std::string error;            // The first failed check.
  Metrics metrics;              // Empty unless correct.
  SimStats sim;                 // One episode's simulated statistics.
  std::uint64_t digest = 0;     // SimDigest(sim).
};

Result RunBenchmark(const Options& opts);

// The set-up split (setup.*_ms) times its own copy of bench::CompileScenario's
// construction sequence, in three phases. This runs one compile episode of
// `opts` on a node that copy built and returns its SimDigest (0 if an output
// check failed), which must equal RunBenchmark's.
std::uint64_t SplitNodeCompileDigest(const Options& opts);

}  // namespace nova::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
