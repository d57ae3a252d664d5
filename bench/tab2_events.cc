// Table 2: distribution of virtualization events — kernel compilation
// under nested paging (EPT) and shadow paging (vTLB), plus the 4 KiB disk
// benchmark. Also prints the §8.5 average VM-exit cost breakdown.
//
// The printed event counts are derived from the structured trace (the
// TraceReport folding pass), not read off the counter registry. The
// counters are kept as an independent tally and the two are cross-checked
// row by row before anything is printed; a mismatch aborts the benchmark.
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <utility>
#include <vector>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"

namespace nova::bench {
namespace {

const char* kRows[] = {
    "vTLB Fill",        "Guest Page Fault", "CR Read/Write", "vTLB Flush",
    "Port I/O",         "INVLPG",           "Hardware Interrupts",
    "Memory-Mapped I/O", "HLT",             "Interrupt Window",
    "Recall",           "CPUID",
};

guest::CompileWorkload::Config Tab2Workload(bool smoke) {
  guest::CompileWorkload::Config w;
  w.processes = 4;
  w.ws_pages = 192;
  w.total_units = smoke ? 800 : 40000;  // Longer run for stable statistics.
  w.compute_cycles = 30000;
  w.mem_bursts = 6;
  w.fresh_prob = 0.04;
  w.switch_every = 20;
  w.disk_every = 150;
  return w;
}

// Trace-derived event count for one Table 2 row.
std::uint64_t TraceValue(const RunResult& r, const char* row) {
  const auto it = r.trace_rows.find(row);
  return it == r.trace_rows.end() ? 0 : it->second.count;
}

// Every printed row must be backed by an identical counter value; the
// trace and the counters are maintained at the same call sites, so any
// divergence means an instrumentation bug.
void CheckTraceAgreesWithCounters(const char* label, const RunResult& r) {
  bool ok = true;
  for (const char* row : kRows) {
    const std::uint64_t traced = TraceValue(r, row);
    const std::uint64_t counted = r.stats.Value(row);
    if (traced != counted) {
      std::fprintf(stderr,
                   "tab2: %s: trace/counter mismatch for '%s': "
                   "trace=%llu counter=%llu\n",
                   label, row, static_cast<unsigned long long>(traced),
                   static_cast<unsigned long long>(counted));
      ok = false;
    }
  }
  if (!ok) {
    std::exit(1);
  }
}

// Cycles per VM exit for one exit-causing opcode, measured in isolation.
double MeasureExitCost(hw::isa::Opcode opcode, std::uint64_t iters) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 64ull << 20},
             GuestVm::Disk::kNone);
  guest::GuestKernel& gk = vm.kernel();
  if (opcode == hw::isa::Opcode::kLoad) {
    // MMIO exits need the device window mapped in the guest page table.
    gk.MapDevice(gk.kernel_cr3(), vmm::vahci::kMmioBase, hw::kPageSize);
  }

  hw::isa::Assembler& as = gk.text();
  const std::uint64_t main = as.Here();
  as.MovImm(5, iters);  // r5: CPUID/emulation clobber r0-r3.
  // Only the exit-triggering opcodes of Table 2 are meaningful here.
  std::uint64_t top = 0;
  if (opcode == hw::isa::Opcode::kOut) {
    top = as.Out(0x80, 1);  // Unclaimed debug port: full exit path.
  } else if (opcode == hw::isa::Opcode::kCpuid) {
    top = as.Cpuid();
  } else {
    top = as.Load(1, hw::isa::kNoReg, vmm::vahci::kMmioBase + hw::ahci::kPxSsts);
  }
  as.Loop(5, top);
  as.Hlt();
  vm.Boot(main);

  // Skip boot, then measure the steady-state loop.
  hw::GuestState& gs = vm.vmm().gstate();
  const sim::Cycles before = system.machine.cpu(0).cycles();
  system.hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(30));
  const sim::Cycles total = system.machine.cpu(0).cycles() - before;
  // Subtract the loop's own work (~2 instructions/iteration).
  return static_cast<double>(total) / static_cast<double>(iters);
}

RunResult RunDisk4k(bool smoke) {
  // The disk column: the 4 KiB virtualized-AHCI benchmark.
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 128ull << 20},
             GuestVm::Disk::kServer);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = 4096,
                                  .total_requests = smoke ? 100u : 2000u});
  vm.Boot(workload.EmitMain());

  const sim::PicoSeconds t0 = system.machine.cpu(0).NowPs();
  MeasuredWindow window = MeasureWindow(system.hv, /*trace=*/true, [&] {
    system.hv.RunUntilCondition([&workload] { return workload.done(); },
                                sim::Seconds(60));
  });
  RunResult r;
  r.seconds = static_cast<double>(system.machine.cpu(0).NowPs() - t0) / 1e12;
  r.stats = std::move(window.counters);
  r.trace_digest = window.trace_digest;
  r.trace_rows = std::move(window.trace_rows);
  r.stats.counter("Disk Operations").Add(workload.completed());
  r.stats.counter("Injected vIRQ").Add(vm.vmm().interrupts_injected());
  r.exits = vm.vmm().exits_handled();
  return r;
}

void Run(const BenchOptions& opts) {
  PrintHeader("Table 2: distribution of virtualization events");

  RunConfig ept;
  ept.label = "EPT";
  ept.stack = StackKind::kNova;
  ept.workload = Tab2Workload(opts.smoke);
  ept.trace = true;
  ept.trace_json = opts.trace_json;
  RunConfig vtlb = ept;
  vtlb.label = "vTLB";
  vtlb.mode = hw::TranslationMode::kShadow;
  vtlb.trace_json.clear();  // --trace-json dumps the EPT run.

  const RunResult ept_r = RunCompile(ept);
  const RunResult vtlb_r = RunCompile(vtlb);
  const RunResult disk_r = RunDisk4k(opts.smoke);

  // The table below is printed from the trace; fail loudly first if the
  // folded trace disagrees with the independent counter tally anywhere.
  CheckTraceAgreesWithCounters("EPT", ept_r);
  CheckTraceAgreesWithCounters("vTLB", vtlb_r);
  CheckTraceAgreesWithCounters("Disk 4k", disk_r);

  std::printf("%-22s %14s %14s %14s\n", "Event", "EPT", "vTLB", "Disk 4k");
  for (const char* row : kRows) {
    std::printf("%-22s %14llu %14llu %14llu\n", row,
                static_cast<unsigned long long>(TraceValue(ept_r, row)),
                static_cast<unsigned long long>(TraceValue(vtlb_r, row)),
                static_cast<unsigned long long>(TraceValue(disk_r, row)));
  }
  std::printf("%-22s %14llu %14llu %14llu\n", "Injected vIRQ",
              static_cast<unsigned long long>(ept_r.stats.Value("Injected vIRQ")),
              static_cast<unsigned long long>(vtlb_r.stats.Value("Injected vIRQ")),
              static_cast<unsigned long long>(disk_r.stats.Value("Injected vIRQ")));
  std::printf("%-22s %14llu %14llu %14llu\n", "Disk Operations",
              static_cast<unsigned long long>(ept_r.stats.Value("disk-reads")),
              static_cast<unsigned long long>(vtlb_r.stats.Value("disk-reads")),
              static_cast<unsigned long long>(disk_r.stats.Value("Disk Operations")));
  std::printf("%-22s %14.3f %14.3f %14.3f\n", "Runtime (seconds)", ept_r.seconds,
              vtlb_r.seconds, disk_r.seconds);

  // §8.5: average cost of a user-level VM exit, measured with dedicated
  // exit micro-loops and weighted by the EPT column's event mix.
  const std::uint64_t iters = opts.smoke ? 200 : 2000;
  const double pio_cost = MeasureExitCost(hw::isa::Opcode::kOut, iters);
  const double cpuid_cost = MeasureExitCost(hw::isa::Opcode::kCpuid, iters);
  const double mmio_cost = MeasureExitCost(hw::isa::Opcode::kLoad, iters);
  const double pio_n = static_cast<double>(ept_r.stats.Value("Port I/O"));
  const double mmio_n = static_cast<double>(ept_r.stats.Value("Memory-Mapped I/O"));
  const double other_n = static_cast<double>(ept_r.exits) - pio_n - mmio_n;
  const double per_exit = (pio_cost * pio_n + mmio_cost * mmio_n +
                           cpuid_cost * std::max(other_n, 0.0)) /
                          static_cast<double>(ept_r.exits);
  const hw::CpuModel& blm = hw::CoreI7_920();
  const double transition = blm.vm_exit + blm.vm_resume;
  const hv::HvCosts costs;
  const double ipc = 2.0 * (costs.portal_traversal + costs.context_switch +
                            costs.addr_space_switch + costs.reply_path / 2 +
                            costs.ipc_refill_entries * blm.tlb_refill_entry);
  std::printf("\n§8.5 — average user-level VM-exit cost (EPT event mix):\n");
  std::printf("  per type: PIO %.0f, CPUID %.0f, MMIO %.0f cycles\n", pio_cost,
              cpuid_cost, mmio_cost);
  std::printf("  exits: %llu, weighted avg: %.0f cycles (paper: ~3900)\n",
              static_cast<unsigned long long>(ept_r.exits), per_exit);
  std::printf("  transition guest<->host: %.0f cycles (%.0f%%; paper 1016, 26%%)\n",
              transition, transition / per_exit * 100);
  std::printf("  hv<->VMM IPC (both ways): %.0f cycles (%.0f%%; paper ~600, 15%%)\n",
              ipc, ipc / per_exit * 100);
  std::printf("  instruction/device emulation: %.0f cycles (%.0f%%; paper ~59%%)\n",
              per_exit - transition - ipc,
              (per_exit - transition - ipc) / per_exit * 100);
  std::printf(
      "\nPaper column sums (470s/645s/10s runs): EPT exits total 867341; "
      "vTLB dominated by 182M fills; disk: 6 MMIO per operation.\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
