// Figure 6: CPU overhead for sequential disk reads with different block
// sizes — native AHCI vs. directly assigned (IOMMU-remapped) vs. fully
// virtualized controller.
#include <cstdio>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"

namespace nova::bench {
namespace {

struct DiskRunResult {
  double utilization = 0;
  double requests_per_s = 0;
  double mbit_per_s = 0;
  std::uint64_t mmio_exits = 0;
  std::uint64_t pio_exits = 0;
};

// --smoke: fewer requests per point.
std::uint64_t RequestsFor(std::uint32_t block, bool smoke) {
  // Enough requests to measure a stable rate without long runtimes.
  const double rate = std::min(8333.0, 67e6 / block);
  const auto n = static_cast<std::uint64_t>(rate * 0.25);
  const std::uint64_t full = std::max<std::uint64_t>(n, 200);
  return smoke ? std::min<std::uint64_t>(full, 50) : full;
}

DiskRunResult RunNativeDisk(std::uint32_t block, std::uint64_t requests) {
  NativeGuest native(&hw::CoreI7_920(), /*timer_hz=*/0, /*host_ahci=*/true);
  guest::DiskWorkload workload(
      &native.kernel(), native.driver(),
      guest::DiskWorkload::Config{.block_bytes = block,
                                  .total_requests = requests});
  native.Boot(workload.EmitMain());

  hw::Cpu& cpu = native.machine().cpu(0);
  cpu.ResetUtilization();
  const sim::PicoSeconds t0 = cpu.NowPs();
  native.runner().RunUntil([&workload] { return workload.done(); },
                           sim::Seconds(30));

  DiskRunResult r;
  const double secs = static_cast<double>(cpu.NowPs() - t0) / 1e12;
  r.utilization = cpu.Utilization();
  r.requests_per_s = static_cast<double>(workload.completed()) / secs;
  r.mbit_per_s = r.requests_per_s * block * 8 / 1e6;
  return r;
}

DiskRunResult RunVmDisk(std::uint32_t block, std::uint64_t requests,
                        bool direct) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 128ull << 20},
             direct ? GuestVm::Disk::kHostAhci : GuestVm::Disk::kServer);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = block,
                                  .total_requests = requests});
  vm.Boot(workload.EmitMain());

  hw::Cpu& cpu = system.machine.cpu(0);
  cpu.ResetUtilization();
  system.hv.stats().ResetAll();
  const sim::PicoSeconds t0 = cpu.NowPs();
  system.hv.RunUntilCondition([&workload] { return workload.done(); },
                              sim::Seconds(30));

  DiskRunResult r;
  const double secs = static_cast<double>(cpu.NowPs() - t0) / 1e12;
  r.utilization = cpu.Utilization();
  r.requests_per_s = static_cast<double>(workload.completed()) / secs;
  r.mbit_per_s = r.requests_per_s * block * 8 / 1e6;
  r.mmio_exits = system.hv.EventCount("Memory-Mapped I/O");
  r.pio_exits = system.hv.EventCount("Port I/O");
  return r;
}

void Run(const BenchOptions& opts) {
  PrintHeader("Figure 6: sequential disk reads, CPU utilization vs block size");
  std::printf("%-8s | %-22s | %-22s | %-22s\n", "", "Native", "Direct (IOMMU)",
              "Virtualized vAHCI");
  std::printf("%-8s | %10s %10s | %10s %10s | %10s %10s %6s\n", "block",
              "util[%]", "req/s", "util[%]", "req/s", "util[%]", "req/s",
              "mmio/rq");
  // --smoke: a shorter sweep.
  const std::uint32_t max_block = opts.smoke ? 4096 : 65536;
  const std::uint32_t step = opts.smoke ? 8 : 2;
  for (std::uint32_t block = 512; block <= max_block; block *= step) {
    const std::uint64_t requests = RequestsFor(block, opts.smoke);
    const DiskRunResult native = RunNativeDisk(block, requests);
    const DiskRunResult direct = RunVmDisk(block, requests, /*direct=*/true);
    const DiskRunResult virt = RunVmDisk(block, requests, /*direct=*/false);
    const double reqs = static_cast<double>(requests);
    std::printf("%-8u | %10.2f %10.0f | %10.2f %10.0f | %10.2f %10.0f %6.1f\n",
                block, native.utilization * 100, native.requests_per_s,
                direct.utilization * 100, direct.requests_per_s,
                virt.utilization * 100, virt.requests_per_s,
                static_cast<double>(virt.mmio_exits) / reqs);
  }
  std::printf(
      "\nPaper shape: utilization roughly flat below the ~8 KiB bandwidth "
      "crossover, then falls with the request rate; Direct roughly doubles "
      "native utilization, Virtualized doubles it again (6 extra MMIO "
      "exits per request).\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
