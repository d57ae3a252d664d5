#include "bench/common.h"

#include <cstring>
#include <utility>

#include "bench/scenario.h"

namespace nova::bench {
namespace {

constexpr sim::PicoSeconds kDeadline = sim::Seconds(120);

RunResult RunNative(const RunConfig& config) {
  NativeGuest native(config.cpu, config.timer_hz, /*host_ahci=*/true);
  guest::CompileWorkload workload(
      &native.kernel(), config.workload.disk_every != 0 ? native.driver() : nullptr,
      config.workload);
  native.Boot(workload.EmitMain());

  hw::Cpu& cpu = native.machine().cpu(0);
  cpu.ResetUtilization();
  const sim::PicoSeconds t0 = cpu.NowPs();
  native.runner().RunUntil([&workload] { return workload.done(); }, kDeadline);

  RunResult result;
  result.seconds =
      static_cast<double>(cpu.NowPs() - t0) / static_cast<double>(sim::kPicosPerSecond);
  result.utilization = cpu.Utilization();
  result.guest_insns = native.runner().engine().instructions();
  return result;
}

RunResult RunVirtualized(const RunConfig& config) {
  // Construction lives in CompileScenario so tests and the migration
  // driver build the identical stack; this function only measures.
  CompileScenario scenario(config);
  root::NovaSystem& system = scenario.system();
  vmm::Vmm& vm = scenario.vm();
  guest::CompileWorkload& workload = scenario.workload();

  hw::Cpu& cpu = system.machine.cpu(0);
  cpu.ResetUtilization();
  const sim::PicoSeconds t0 = cpu.NowPs();
  MeasuredWindow window = MeasureWindow(
      system.hv, config.trace, [&scenario] { scenario.RunUntilDone(kDeadline); });

  RunResult result;
  result.seconds =
      static_cast<double>(cpu.NowPs() - t0) / static_cast<double>(sim::kPicosPerSecond);
  result.utilization = cpu.Utilization();
  result.exits = vm.exits_handled();
  result.guest_insns = system.hv.engine(0).instructions();
  result.stats = std::move(window.counters);
  result.stats.counter("disk-reads").Add(workload.disk_reads());
  result.stats.counter("Injected vIRQ").Add(vm.interrupts_injected());
  result.trace_digest = window.trace_digest;
  result.trace_rows = std::move(window.trace_rows);
  if (config.trace && !config.trace_json.empty()) {
    system.machine.tracer().WriteChromeJsonFile(config.trace_json);
  }
  return result;
}

}  // namespace

BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strncmp(arg, "--trace-json=", 13) == 0) {
      opts.trace_json = arg + 13;
    } else if (std::strcmp(arg, "--trace-json") == 0 && i + 1 < argc) {
      opts.trace_json = argv[++i];
    }
  }
  return opts;
}

MeasuredWindow MeasureWindow(hv::Hypervisor& hv, bool trace,
                             const std::function<void()>& run) {
  sim::Tracer& tracer = hv.machine().tracer();
  sim::TraceReport report;
  hv.stats().ResetAll();
  if (trace) {
    tracer.Reset();
    tracer.set_sink(&report);
    tracer.set_enabled(true);
  }
  run();
  MeasuredWindow window;
  for (const auto& [name, counter] : hv.stats().counters()) {
    window.counters.counter(name).Add(counter.value());
  }
  if (trace) {
    tracer.set_enabled(false);
    report.FoldRemaining(tracer);
    tracer.set_sink(nullptr);
    window.trace_rows = report.Rows(tracer);
    window.trace_digest = tracer.digest();
  }
  return window;
}

RunResult RunCompile(const RunConfig& config) {
  if (config.stack == StackKind::kNative) {
    return RunNative(config);
  }
  return RunVirtualized(config);
}

}  // namespace nova::bench
