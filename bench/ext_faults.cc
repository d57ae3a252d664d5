// Extension: fault injection under load.
//
// Part 1 — disk throughput under media-error rates: the virtualized disk
// path (guest driver -> vAHCI -> disk server -> AHCI) with the server's
// bounded retry machinery and the guest driver's error tail enabled. The
// interesting shape: throughput degrades smoothly with the error rate
// (each error costs one retry round trip), and no rate wedges the stack.
//
// Part 2 — VMM crash recovery latency across supervisor check periods: a
// VMM is killed mid-workload; the root detects the stale heartbeat, tears
// the domains down and restarts the monitor over the surviving guest RAM.
// Detection latency is VmmSupervisor::kStaleChecks * period; the end-to-end
// cost shows up as added workload completion time.
#include <cstdio>
#include <vector>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"
#include "src/root/supervisor.h"
#include "src/sim/fault.h"

namespace nova::bench {
namespace {

constexpr std::uint32_t kBlock = 4096;

struct FaultDiskResult {
  double requests_per_s = 0;
  double utilization = 0;
  std::uint64_t injected = 0;
  std::uint64_t server_retries = 0;
  std::uint64_t server_failed = 0;
  std::uint64_t driver_retries = 0;
};

FaultDiskResult RunDiskWithErrorRate(double rate, std::uint64_t requests) {
  root::SystemConfig sc;
  sc.machine =
      hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  services::DiskServer& server = system.StartDiskServer();
  server.SetRequestDeadline(sim::Milliseconds(10), /*max_retries=*/3,
                            sim::Microseconds(50));

  sim::FaultPlan plan(/*seed=*/5);
  if (rate > 0) {
    plan.Schedule({.at = 0,
                   .kind = sim::FaultKind::kDiskMediaError,
                   .target = "disk",
                   .count = 0,  // Unlimited budget: rate-limited only.
                   .rate = rate});
  }
  plan.Arm(&system.machine.events());
  system.platform.disk->set_fault_plan(&plan);

  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 128ull << 20},
             GuestVm::Disk::kServerWithErrors);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = kBlock,
                                  .total_requests = requests});
  vm.Boot(workload.EmitMain());

  hw::Cpu& cpu = system.machine.cpu(0);
  cpu.ResetUtilization();
  const sim::PicoSeconds t0 = cpu.NowPs();
  system.hv.RunUntilCondition([&workload] { return workload.done(); },
                              sim::Seconds(60));

  FaultDiskResult r;
  const double secs = static_cast<double>(cpu.NowPs() - t0) / 1e12;
  r.requests_per_s = static_cast<double>(workload.completed()) / secs;
  r.utilization = cpu.Utilization();
  r.injected = plan.injected(sim::FaultKind::kDiskMediaError);
  r.server_retries = server.requests_retried();
  r.server_failed = server.requests_failed();
  r.driver_retries = vm.driver()->retried();
  return r;
}

struct RecoveryResult {
  bool completed = false;
  std::uint64_t recoveries = 0;
  double detect_us = 0;
  double total_ms = 0;
};

RecoveryResult RunCrashRecovery(sim::PicoSeconds check_period_ps, bool crash,
                                std::uint64_t requests) {
  root::SystemConfig sc;
  sc.machine =
      hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  system.StartDiskServer();  // Its domain precedes the VMM's.

  sim::FaultPlan plan(/*seed=*/9);
  if (crash) {
    plan.Schedule({.at = sim::Milliseconds(2),
                   .kind = sim::FaultKind::kVmmCrash,
                   .target = "vm",
                   .count = 1,
                   .rate = 1.0});
  }
  plan.Arm(&system.machine.events());

  GuestVm vm(system,
             vmm::VmmConfig{.name = "vm", .guest_mem_bytes = 32ull << 20},
             GuestVm::Disk::kServerWithErrors);
  vm.vmm().SetFaultPlan(&plan);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = kBlock,
                                  .total_requests = requests});
  vm.Boot(workload.EmitMain());

  root::VmmSupervisor::Config supc;
  supc.check_period_ps = check_period_ps;
  root::VmmSupervisor supervisor(&system.hv, system.root.get(), supc);
  CheckOk("VmmSupervisor::Watch",
          supervisor.Watch(&vm.vmm(),
                           [&vm](const root::VmmSupervisor::RecoveryInfo& info) {
                             vm.Restart(info);
                           }));

  const sim::PicoSeconds t0 = system.machine.cpu(0).NowPs();
  system.hv.RunUntilCondition([&workload] { return workload.done(); },
                              sim::Seconds(60));
  RecoveryResult r;
  r.completed = workload.done();
  r.recoveries = supervisor.recoveries();
  r.detect_us = static_cast<double>(supervisor.last_detect_latency_ps()) / 1e6;
  r.total_ms = static_cast<double>(system.machine.cpu(0).NowPs() - t0) / 1e9;
  return r;
}

void Run(const BenchOptions& opts) {
  const std::uint64_t disk_requests = opts.smoke ? 60 : 500;
  const std::uint64_t recovery_requests = opts.smoke ? 40 : 150;
  PrintHeader("Extension: disk throughput under injected media-error rates");
  std::printf("%-10s | %10s %10s %10s %10s %10s\n", "error rate", "req/s",
              "util[%]", "injected", "srv-retry", "drv-retry");
  for (const double rate : {0.0, 1e-3, 1e-2, 5e-2}) {
    const FaultDiskResult r = RunDiskWithErrorRate(rate, disk_requests);
    std::printf("%-10g | %10.0f %10.2f %10llu %10llu %10llu\n", rate,
                r.requests_per_s, r.utilization * 100,
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.server_retries),
                static_cast<unsigned long long>(r.driver_retries));
  }

  PrintHeader("Extension: VMM crash recovery vs supervisor check period");
  const RecoveryResult clean =
      RunCrashRecovery(sim::Microseconds(200), false, recovery_requests);
  std::printf("fault-free workload time: %.3f ms\n\n", clean.total_ms);
  std::printf("%-12s | %12s %12s %12s\n", "period[us]", "detect[us]",
              "total[ms]", "overhead[ms]");
  const std::vector<std::uint64_t> periods =
      opts.smoke ? std::vector<std::uint64_t>{200, 1000}
                 : std::vector<std::uint64_t>{100, 200, 500, 1000, 2000};
  for (const std::uint64_t period_us : periods) {
    const RecoveryResult r = RunCrashRecovery(sim::Microseconds(period_us),
                                              /*crash=*/true, recovery_requests);
    std::printf("%-12llu | %12.0f %12.3f %12.3f%s\n",
                static_cast<unsigned long long>(period_us), r.detect_us,
                r.total_ms, r.total_ms - clean.total_ms,
                r.completed && r.recoveries == 1 ? "" : "  [INCOMPLETE]");
  }
  std::printf(
      "\nShape: detection latency is VmmSupervisor::kStaleChecks * period; "
      "the end-to-end overhead tracks it plus the in-flight request replay, "
      "so tight heartbeat periods buy bounded recovery time for a fixed "
      "polling cost.\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
