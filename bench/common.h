// Shared benchmark harness: assembles the full system, runs the paper's
// workloads under a named configuration, and reports timing/utilization.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/baseline/profiles.h"
#include "src/guest/bare_metal.h"
#include "src/guest/driver_ahci.h"
#include "src/guest/kernel.h"
#include "src/guest/workload_compile.h"
#include "src/root/system.h"
#include "src/sim/trace.h"
#include "src/vmm/vmm.h"

namespace nova::bench {

// Command-line options shared by all benchmark binaries.
//   --smoke            scale workloads down for fast schema-validation runs
//   --trace-json=FILE  dump the structured trace (Chrome trace_event JSON,
//                      loadable in Perfetto) of the last traced run to FILE
struct BenchOptions {
  bool smoke = false;
  std::string trace_json;
};

// Parses argv; unknown arguments are ignored so existing invocations keep
// working unchanged.
BenchOptions ParseBenchArgs(int argc, char** argv);

// How a guest runs: the bars of Figure 5.
enum class StackKind {
  kNative,        // Bare metal, no hypervisor.
  kDirect,        // VM with all intercepts disabled, devices direct (§8.1).
  kNova,          // NOVA: microhypervisor + user-level VMM.
  kMonolithic,    // In-kernel VMM baseline (KVM-like).
};

struct RunConfig {
  std::string label;
  const hw::CpuModel* cpu = &hw::CoreI7_920();
  StackKind stack = StackKind::kNova;
  hw::TranslationMode mode = hw::TranslationMode::kNested;
  bool large_pages = true;
  hv::VtlbPolicy vtlb{};  // Shadow-paging ladder (mode == kShadow only).
  guest::CompileWorkload::Config workload{};
  std::uint32_t timer_hz = 250;
  bool trace = false;          // Record a structured trace of the run.
  std::string trace_json;      // If set (and trace), dump Chrome JSON here.
};

struct RunResult {
  double seconds = 0;          // Simulated wall-clock for the workload.
  double utilization = 0;      // CPU busy fraction.
  std::uint64_t exits = 0;     // VM exits dispatched to user level.
  sim::StatRegistry stats;     // Hypervisor event counters (Table 2).
  std::uint64_t guest_insns = 0;
  // Filled only when RunConfig::trace is set: the deterministic FNV-1a
  // digest of the full event stream and the per-name folded attribution.
  std::uint64_t trace_digest = 0;
  std::map<std::string, sim::TraceReport::Entry> trace_rows;
};

// Run the kernel-compile workload under `config`; returns the timing.
RunResult RunCompile(const RunConfig& config);

// One run window: the hypervisor's counters from zero and, when traced,
// the machine trace's folded rows and digest over the same window.
struct MeasuredWindow {
  sim::StatRegistry counters;
  std::map<std::string, sim::TraceReport::Entry> trace_rows;
  std::uint64_t trace_digest = 0;
};

// Resets `hv`'s counters (and with `trace` the machine's tracer), then
// runs `run`. The tracer charges no cycles, so tracing changes no timing.
MeasuredWindow MeasureWindow(hv::Hypervisor& hv, bool trace,
                             const std::function<void()>& run);

// Formatting helpers.
inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace nova::bench

#endif  // BENCH_COMMON_H_
