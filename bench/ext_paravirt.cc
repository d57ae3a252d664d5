// Extension ablation: paravirtualized vs. fully virtualized console I/O.
//
// §4 of the paper notes that while NOVA does not rely on
// paravirtualization, "explicit hypercalls from an enlightened guest OS to
// the VMM are possible." This bench quantifies what such enlightenment
// buys: printing the same message through per-character port exits versus
// one batched hypercall.
#include <cstdio>

#include "bench/scenario.h"

namespace nova::bench {
namespace {

constexpr int kMessageLen = 64;

double RunConsole(bool paravirt, int repeats, std::uint64_t* exits_out) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  GuestVm vm(system, vmm::VmmConfig{.guest_mem_bytes = 64ull << 20},
             GuestVm::Disk::kNone);

  // The message buffer in guest memory.
  std::string msg(kMessageLen, 'x');
  vm.vmm().WriteGuest(0x500000, msg.data(), msg.size());

  hw::isa::Assembler& as = vm.kernel().text();
  const std::uint64_t main = as.Here();
  as.MovImm(5, repeats);
  const std::uint64_t top = as.Here();
  if (paravirt) {
    as.MovImm(1, 0x500000);
    as.MovImm(2, kMessageLen);
    as.Emit({.opcode = hw::isa::Opcode::kVmcall, .imm32 = 4});
  } else {
    for (int i = 0; i < kMessageLen; ++i) {
      as.MovImm(1, 'x');
      as.Out(vmm::vuart::kData, 1);
    }
  }
  as.Loop(5, top);
  as.Hlt();
  vm.Boot(main);

  hw::GuestState& gs = vm.vmm().gstate();
  const sim::Cycles before = system.machine.cpu(0).cycles();
  system.hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(60));
  *exits_out = vm.vmm().exits_handled();
  return static_cast<double>(system.machine.cpu(0).cycles() - before) /
         (repeats * kMessageLen);
}

void Run(const BenchOptions& opts) {
  const int repeats = opts.smoke ? 10 : 200;  // --smoke: fewer repeats.
  PrintHeader("Extension: paravirtualized console (enlightened guest, §4)");
  std::uint64_t pio_exits = 0;
  std::uint64_t pv_exits = 0;
  const double pio = RunConsole(false, repeats, &pio_exits);
  const double pv = RunConsole(true, repeats, &pv_exits);
  std::printf("%-28s %14s %14s\n", "path", "cycles/char", "vm-exits");
  std::printf("%-28s %14.0f %14llu\n", "port I/O (1 exit/char)", pio,
              static_cast<unsigned long long>(pio_exits));
  std::printf("%-28s %14.0f %14llu\n", "hypercall (batched)", pv,
              static_cast<unsigned long long>(pv_exits));
  std::printf("\nspeedup: %.1fx — enlightenment trades the per-character exit "
              "for one hypercall per %d-byte write.\n",
              pio / pv, kMessageLen);
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
