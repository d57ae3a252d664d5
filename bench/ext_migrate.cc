// Extension: checkpoint/restore and live migration (DESIGN.md §13).
//
// Part 1 — stop-and-copy downtime vs guest dirty rate: iterative pre-copy
// migration of a running compile workload, sweeping the working-set size.
// Round 0 ships all of guest RAM while the guest keeps executing; each
// later round ships only what the guest re-dirtied during the previous
// transfer. The interesting shape: total migration time is dominated by
// the full copy and nearly flat, while downtime — the stop-and-copy
// residual plus the machine snapshot — grows with the dirty rate. At the
// smallest working set the pre-copy converges below the cutoff threshold
// and downtime is a tiny fraction of the total.
//
// Part 2 — recovery time, cold rebuild vs warm restart: a VM dies at a
// fixed point in its run. Cold recovery re-executes the workload from
// boot to the crash point; warm recovery restores the last periodic
// checkpoint and re-executes only the tail since that checkpoint. The
// sweep over checkpoint periods shows warm recovery cost growing linearly
// with the period (the re-execution window) while cold stays at the full
// crash-point cost.
//
// Part 3 — supervisor checkpointing for VMM crashes: the root's
// supervisor snapshots the device-model registers of each healthy VMM on
// a configurable cadence. When the VMM is killed, recovery restores the
// vAHCI registers from the last healthy-time checkpoint instead of
// reading them out of the crashed (untrusted) VMM — the guest and its
// in-flight requests survive either way, but only the checkpointed
// variant never trusts post-crash VMM memory.
#include <cstdio>
#include <vector>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"
#include "src/root/supervisor.h"
#include "src/services/migration.h"
#include "src/sim/fault.h"

namespace nova::bench {
namespace {

// --- Part 1: downtime vs dirty rate --------------------------------------

RunConfig DirtyConfig(std::uint32_t ws_pages) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = ws_pages;
  c.workload.total_units = 10'000'000;  // Never finishes: a live guest.
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 1'000'000;  // Steady-state working set.
  return c;
}

struct MigrateRow {
  std::uint32_t ws_pages = 0;
  double dirty_pages_per_ms = 0;
  services::MigrationResult r;
};

// A source/target pair of identically constructed nodes plus the wiring
// the migration driver needs between them.
struct Nodes {
  CompileScenario src;
  CompileScenario dst;
  explicit Nodes(const RunConfig& c) : src(c), dst(c) {}

  services::MigrationDriver::Endpoints Endpoints() {
    services::MigrationDriver::Endpoints ep;
    ep.source_hv = &src.system().hv;
    ep.source_vm_pd = src.vm().vm_pd();
    ep.link = src.system().platform.link.get();
    ep.guest_pages = kBenchGuestMem >> hw::kPageShift;
    ep.run_source = [this](sim::PicoSeconds dt) { src.RunFor(dt); };
    ep.save = [this](sim::Snapshot& s) { return src.SaveState(s); };
    ep.load = [this](sim::Snapshot& s) { return dst.LoadState(s); };
    return ep;
  }
};

MigrateRow RunMigration(std::uint32_t ws_pages) {
  Nodes nodes(DirtyConfig(ws_pages));
  nodes.src.RunFor(sim::Milliseconds(2));  // Warm the working set.

  services::MigrationConfig mc;
  mc.bandwidth_mbps = 40000;
  mc.max_rounds = 8;
  mc.stop_copy_threshold_pages = 64;
  services::MigrationDriver driver(nodes.Endpoints(), mc);

  MigrateRow row;
  row.ws_pages = ws_pages;
  row.r = driver.Run();
  if (row.r.round_pages.size() > 1) {
    // Pages dirtied during the round-0 transfer, per millisecond of it.
    const double round0_ms =
        (static_cast<double>(row.r.round_pages[0]) * 4096.0 * 8.0e6 /
             mc.bandwidth_mbps +
         static_cast<double>(services::kRoundLatencyPs)) /
        1e9;
    row.dirty_pages_per_ms =
        static_cast<double>(row.r.round_pages[1]) / round0_ms;
  }
  return row;
}

// --- Part 2: cold rebuild vs warm restart ---------------------------------

RunConfig RecoveryConfig() {
  RunConfig c = DirtyConfig(/*ws_pages=*/64);
  return c;
}

struct RecoveryRow {
  double period_ms = 0;       // Checkpoint cadence.
  double ckpt_age_ms = 0;     // Crash time minus last checkpoint time.
  double snapshot_mb = 0;     // Shipped state for the warm path.
  double warm_ms = 0;         // Simulated time to re-reach the crash point.
  double cold_ms = 0;
};

RecoveryRow RunColdVsWarm(sim::PicoSeconds period_ps,
                          sim::PicoSeconds crash_at_ps) {
  const RunConfig cfg = RecoveryConfig();

  // The victim runs to the crash point, checkpointing on the cadence.
  CompileScenario live(cfg);
  sim::Snapshot last;
  sim::PicoSeconds last_at = 0;
  sim::PicoSeconds done = 0;
  while (done + period_ps <= crash_at_ps) {
    live.RunFor(period_ps);
    done += period_ps;
    last = sim::Snapshot();
    (void)live.SaveState(last);
    last_at = done;
  }
  live.RunFor(crash_at_ps - done);  // ...and dies here.
  const std::uint64_t crash_units = live.workload().units_done();

  RecoveryRow row;
  row.period_ms = static_cast<double>(period_ps) / 1e9;
  row.ckpt_age_ms = static_cast<double>(crash_at_ps - last_at) / 1e9;
  row.snapshot_mb =
      static_cast<double>(last.PayloadBytes()) / (1024.0 * 1024.0);

  // Warm: restore the last checkpoint, re-execute only the tail.
  CompileScenario warm(cfg);
  (void)warm.LoadState(last);
  const sim::PicoSeconds warm_t0 = warm.now();
  guest::CompileWorkload* ww = &warm.workload();
  warm.system().hv.RunUntilCondition(
      [ww, crash_units] { return ww->units_done() >= crash_units; },
      warm_t0 + sim::Seconds(60));
  row.warm_ms = static_cast<double>(warm.now() - warm_t0) / 1e9;

  // Cold: rebuild from nothing, re-execute boot to the crash point.
  CompileScenario cold(cfg);
  guest::CompileWorkload* cw = &cold.workload();
  cold.system().hv.RunUntilCondition(
      [cw, crash_units] { return cw->units_done() >= crash_units; },
      sim::Seconds(60));
  row.cold_ms = static_cast<double>(cold.now()) / 1e9;
  return row;
}

// --- Part 3: supervisor checkpointing across a VMM crash ------------------

struct SupervisorRow {
  bool completed = false;
  std::uint64_t checkpoints = 0;
  bool regs_from_checkpoint = false;
  double detect_us = 0;
  double total_ms = 0;
};

SupervisorRow RunSupervisedCrash(std::uint32_t checkpoint_every,
                                 std::uint64_t requests) {
  root::SystemConfig sc;
  sc.machine =
      hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  system.StartDiskServer();  // Its domain precedes the VMM's.

  sim::FaultPlan plan(/*seed=*/9);
  plan.Schedule({.at = sim::Milliseconds(2),
                 .kind = sim::FaultKind::kVmmCrash,
                 .target = "vm",
                 .count = 1,
                 .rate = 1.0});
  plan.Arm(&system.machine.events());

  GuestVm vm(system,
             vmm::VmmConfig{.name = "vm", .guest_mem_bytes = 32ull << 20},
             GuestVm::Disk::kServerWithErrors);
  vm.vmm().SetFaultPlan(&plan);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = 4096,
                                  .total_requests = requests});
  vm.Boot(workload.EmitMain());

  root::VmmSupervisor::Config supc;
  supc.check_period_ps = sim::Microseconds(200);
  supc.checkpoint_every_checks = checkpoint_every;
  root::VmmSupervisor supervisor(&system.hv, system.root.get(), supc);
  SupervisorRow row;
  CheckOk("VmmSupervisor::Watch",
          supervisor.Watch(
              &vm.vmm(), [&](const root::VmmSupervisor::RecoveryInfo& info) {
                row.regs_from_checkpoint = info.regs_from_checkpoint;
                vm.Restart(info);
              }));

  const sim::PicoSeconds t0 = system.machine.cpu(0).NowPs();
  system.hv.RunUntilCondition([&workload] { return workload.done(); },
                              sim::Seconds(60));
  row.completed = workload.done();
  row.checkpoints = supervisor.checkpoints();
  row.detect_us =
      static_cast<double>(supervisor.last_detect_latency_ps()) / 1e6;
  row.total_ms =
      static_cast<double>(system.machine.cpu(0).NowPs() - t0) / 1e9;
  return row;
}

// --- driver ---------------------------------------------------------------

void Run(const BenchOptions& opts) {
  PrintHeader("Extension: pre-copy migration downtime vs guest dirty rate");
  std::printf("%-9s | %11s %6s %9s %9s %10s %10s %7s\n", "ws pages",
              "dirty[p/ms]", "rounds", "precopy", "residual", "down[us]",
              "total[ms]", "down%");
  const std::vector<std::uint32_t> sweeps =
      opts.smoke ? std::vector<std::uint32_t>{16, 256}
                 : std::vector<std::uint32_t>{16, 64, 256, 1024};
  for (const std::uint32_t ws : sweeps) {
    const MigrateRow row = RunMigration(ws);
    const double down_us = static_cast<double>(row.r.downtime_ps) / 1e6;
    const double total_ms = static_cast<double>(row.r.total_ps) / 1e9;
    std::printf("%-9u | %11.0f %6u %9llu %9llu %10.1f %10.3f %6.2f%%%s\n",
                row.ws_pages, row.dirty_pages_per_ms, row.r.rounds,
                static_cast<unsigned long long>(row.r.precopy_pages),
                static_cast<unsigned long long>(row.r.stop_copy_pages),
                down_us, total_ms,
                100.0 * static_cast<double>(row.r.downtime_ps) /
                    static_cast<double>(row.r.total_ps),
                row.r.success ? "" : "  [FAILED]");
  }
  std::printf(
      "\nShape: the full round-0 copy dominates total time at every dirty "
      "rate; downtime is only the residual dirty set plus the machine "
      "snapshot, so it grows with the working set while staying a small "
      "fraction of the total.\n");

  PrintHeader("Extension: recovery time — cold rebuild vs warm restart");
  // Deliberately not a multiple of any checkpoint period, so the crash
  // always lands mid-interval and warm recovery has a real tail to redo.
  const sim::PicoSeconds crash_at =
      opts.smoke ? sim::Milliseconds(8) : sim::Microseconds(27'300);
  std::printf("crash point: %.0f ms into the run\n\n",
              static_cast<double>(crash_at) / 1e9);
  std::printf("%-11s | %11s %8s %9s %9s %7s\n", "period[ms]", "ckpt age",
              "snap[MB]", "warm[ms]", "cold[ms]", "speedup");
  const std::vector<std::uint64_t> periods =
      opts.smoke ? std::vector<std::uint64_t>{5}
                 : std::vector<std::uint64_t>{1, 2, 5, 10};
  for (const std::uint64_t period_ms : periods) {
    const RecoveryRow row =
        RunColdVsWarm(sim::Milliseconds(period_ms), crash_at);
    std::printf("%-11.0f | %11.1f %8.2f %9.3f %9.3f %6.1fx\n", row.period_ms,
                row.ckpt_age_ms, row.snapshot_mb, row.warm_ms, row.cold_ms,
                row.cold_ms / row.warm_ms);
  }
  std::printf(
      "\nShape: cold recovery always re-executes the whole run up to the "
      "crash; warm recovery re-executes only the window since the last "
      "checkpoint, so its cost scales with the checkpoint period, not with "
      "uptime.\n");

  PrintHeader("Extension: supervisor device-model checkpointing across a "
              "VMM crash");
  const std::uint64_t requests = opts.smoke ? 40 : 150;
  std::printf("%-11s | %6s %10s %11s %10s %10s\n", "ckpt every", "ckpts",
              "from-ckpt", "detect[us]", "total[ms]", "completed");
  for (const std::uint32_t every : {0u, 1u}) {
    const SupervisorRow row = RunSupervisedCrash(every, requests);
    std::printf("%-11u | %6llu %10s %11.0f %10.3f %10s\n", every,
                static_cast<unsigned long long>(row.checkpoints),
                row.regs_from_checkpoint ? "yes" : "no", row.detect_us,
                row.total_ms, row.completed ? "yes" : "NO");
  }
  std::printf(
      "\nShape: with checkpointing on, recovery restores device-model "
      "registers captured while the VMM was still healthy instead of "
      "reading them from the crashed VMM's memory; the guest completes "
      "either way, but the checkpointed path never trusts post-crash VMM "
      "state.\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
