// Figure 7: CPU overhead for receiving UDP streams of constant bandwidth
// with 64-, 1472- and 9188-byte packets — native NIC vs. a NIC directly
// assigned to a virtual machine (DMA remapped by the IOMMU, interrupts
// virtualized by the VMM).
#include <cstdio>

#include "bench/scenario.h"
#include "src/guest/driver_nic.h"
#include "src/guest/workload_udp.h"

namespace nova::bench {
namespace {

constexpr sim::PicoSeconds kWarmup = sim::Milliseconds(5);
constexpr sim::PicoSeconds kMeasure = sim::Milliseconds(60);

struct NetRunResult {
  double utilization = 0;
  double packets_per_s = 0;
  std::uint64_t irqs = 0;
};

NetRunResult RunNativeNet(double mbit, std::uint32_t packet_bytes,
                          sim::PicoSeconds measure) {
  NativeGuest native(&hw::CoreI7_920(), /*timer_hz=*/0, /*host_ahci=*/false);
  guest::GuestNicDriver driver(&native.kernel(),
                               guest::GuestNicDriver::Config{
                                   .mmio_base = root::kNicMmioBase,
                                   .irq_vector = kHostNicVector,
                                   .packet_bytes = packet_bytes});
  guest::UdpWorkload workload(&native.kernel(), &driver);
  native.Boot(workload.EmitMain());

  root::Platform& platform = native.platform();
  platform.link->StartStream(mbit, packet_bytes);
  native.runner().RunUntil([] { return false; }, kWarmup);
  hw::Cpu& cpu = native.machine().cpu(0);
  cpu.ResetUtilization();
  const std::uint64_t p0 = workload.packets();
  const sim::PicoSeconds t0 = cpu.NowPs();
  native.runner().RunUntil([] { return false; }, t0 + measure);
  platform.link->Stop();

  NetRunResult r;
  const double secs = static_cast<double>(cpu.NowPs() - t0) / 1e12;
  r.utilization = cpu.Utilization();
  r.packets_per_s = static_cast<double>(workload.packets() - p0) / secs;
  r.irqs = platform.nic->interrupts_raised();
  return r;
}

NetRunResult RunDirectNet(double mbit, std::uint32_t packet_bytes,
                          sim::PicoSeconds measure) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 128ull << 20},
             GuestVm::Disk::kNone);
  CheckOk("Vmm::AssignHostDevice(nic)",
          vm.vmm().AssignHostDevice("nic", kHostNicVector));
  guest::GuestNicDriver driver(&vm.kernel(),
                               guest::GuestNicDriver::Config{
                                   .mmio_base = root::kNicMmioBase,
                                   .irq_vector = kHostNicVector,
                                   .packet_bytes = packet_bytes});
  guest::UdpWorkload workload(&vm.kernel(), &driver);
  vm.Boot(workload.EmitMain());

  system.platform.link->StartStream(mbit, packet_bytes);
  system.hv.RunUntilCondition([] { return false; }, kWarmup);
  hw::Cpu& cpu = system.machine.cpu(0);
  cpu.ResetUtilization();
  const std::uint64_t p0 = workload.packets();
  const sim::PicoSeconds t0 = cpu.NowPs();
  system.hv.RunUntilCondition([] { return false; }, t0 + measure);
  system.platform.link->Stop();

  NetRunResult r;
  const double secs = static_cast<double>(cpu.NowPs() - t0) / 1e12;
  r.utilization = cpu.Utilization();
  r.packets_per_s = static_cast<double>(workload.packets() - p0) / secs;
  r.irqs = system.platform.nic->interrupts_raised();
  return r;
}

void Run(const BenchOptions& opts) {
  // --smoke: a shorter measurement window, a truncated bandwidth sweep.
  const sim::PicoSeconds measure = opts.smoke ? sim::Milliseconds(10) : kMeasure;
  const double max_mbit = opts.smoke ? 16 : 1024;
  PrintHeader("Figure 7: UDP receive, CPU utilization vs bandwidth");
  const std::uint32_t sizes[] = {64, 1472, 9188};
  for (const std::uint32_t size : sizes) {
    std::printf("\n-- packet size %u bytes --\n", size);
    std::printf("%10s %14s %14s %14s %14s\n", "MBit/s", "native util[%]",
                "direct util[%]", "native kpps", "direct kpps");
    for (double mbit = 2; mbit <= max_mbit; mbit *= 2) {
      // Skip configurations beyond the wire's packet capacity.
      if (mbit * 1e6 / (size * 8.0) > 2.2e6) {
        continue;
      }
      const NetRunResult native = RunNativeNet(mbit, size, measure);
      const NetRunResult direct = RunDirectNet(mbit, size, measure);
      std::printf("%10.0f %14.2f %14.2f %14.1f %14.1f\n", mbit,
                  native.utilization * 100, direct.utilization * 100,
                  native.packets_per_s / 1000, direct.packets_per_s / 1000);
    }
  }
  std::printf(
      "\nPaper shape: virtualization overhead scales with the interrupt "
      "rate; interrupt coalescing caps the rate near 20000/s, after which "
      "the curves converge (per-packet work dominates).\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
