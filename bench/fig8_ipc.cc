// Figure 8: IPC microbenchmark.
//
// Correlates the transition cost between user and kernel mode (sysenter /
// sysexit) with the basic cost of a message transfer between two threads,
// for every processor of Table 1 — same address space and cross address
// space (where TLB flush + refill effects appear).
#include <cstdio>

#include "bench/common.h"

namespace nova::bench {
namespace {

struct IpcCost {
  double entry_exit = 0;
  double ipc_path = 0;
  double tlb_effects = 0;
  double total = 0;
  double nanoseconds = 0;
};

IpcCost MeasureIpc(const hw::CpuModel* model, bool cross_as, int words,
                   int iterations) {
  hw::Machine machine(hw::MachineConfig{.cpus = {model}, .ram_size = 256ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();

  hv::Pd* server = nullptr;
  hv::Pd* client_pd = nullptr;
  (void)hv.CreatePd(root, 100, "server", false, &server);
  (void)hv.CreatePd(root, 101, "client", false, &client_pd);

  hv::Ec* handler = nullptr;
  (void)hv.CreateEcLocal(root, 110, cross_as ? 100 : 101, 0, [](std::uint64_t) {},
                   &handler);
  (void)hv.CreatePt(root, 111, 110, 0, 7);
  (void)hv.Delegate(root, 101, hv::Crd::Obj(111, 0, hv::perm::kCall), 50);
  hv::Ec* client = nullptr;
  (void)hv.CreateEcGlobal(root, 112, 101, 0, [] {}, &client);

  client->utcb().untyped = words;
  // Warm up once.
  (void)hv.Call(client, 50);
  const sim::Cycles before = machine.cpu(0).cycles();
  for (int i = 0; i < iterations; ++i) {
    (void)hv.Call(client, 50);
  }
  const double per_call =
      static_cast<double>(machine.cpu(0).cycles() - before) / iterations;

  IpcCost cost;
  // One call/reply comprises one kernel entry + exit; the rest is the IPC
  // path (capability lookup, portal traversal, context switches, copies)
  // plus, cross-AS, the TLB flush/refill penalty.
  cost.total = per_call;
  cost.entry_exit = model->syscall_entry + model->syscall_exit;
  const hv::HvCosts costs;
  cost.tlb_effects =
      cross_as ? 2.0 * (costs.addr_space_switch +
                        costs.ipc_refill_entries * model->tlb_refill_entry)
               : 0.0;
  cost.ipc_path = cost.total - cost.entry_exit - cost.tlb_effects;
  cost.nanoseconds = per_call * 1e6 / static_cast<double>(model->frequency.khz());
  return cost;
}

void Run(const BenchOptions& opts) {
  // --smoke: fewer iterations per measurement.
  const int iterations = opts.smoke ? 50 : 1000;
  PrintHeader("Figure 8: IPC microbenchmark (cycles; one call+reply)");
  std::printf("%-12s | %-34s | %-44s\n", "", "same address space",
              "cross address space");
  std::printf("%-12s | %8s %8s %8s | %8s %8s %8s %8s %8s\n", "CPU", "entry",
              "path", "total", "entry", "path", "TLB", "total", "ns");
  for (const hw::CpuModel* model : hw::AllModels()) {
    const IpcCost same = MeasureIpc(model, /*cross_as=*/false, 0, iterations);
    const IpcCost cross = MeasureIpc(model, /*cross_as=*/true, 0, iterations);
    std::printf("%-12s | %8.0f %8.0f %8.0f | %8.0f %8.0f %8.0f %8.0f %8.0f\n",
                model->tag.data(), same.entry_exit, same.ipc_path, same.total,
                cross.entry_exit, cross.ipc_path, cross.tlb_effects, cross.total,
                cross.nanoseconds);
  }

  std::printf(
      "\nMessage-size scaling (BLM, same AS): the paper cites 2-3 cycles "
      "per transferred word.\n");
  std::printf("%8s %10s\n", "words", "cycles");
  double base = 0;
  for (int words : {0, 4, 16, 64}) {
    const IpcCost c = MeasureIpc(&hw::CoreI7_920(), false, words, iterations);
    if (words == 0) {
      base = c.total;
      std::printf("%8d %10.0f\n", words, c.total);
    } else {
      std::printf("%8d %10.0f   (+%.1f cycles/word)\n", words, c.total,
                  (c.total - base) / words);
    }
  }
  std::printf(
      "\nPaper reference: cross-AS IPC 164/152/192/179/131/108 ns on "
      "K8/K10/YNH/CNR/WFD/BLM; extending TLB tags to user address spaces "
      "would cut the cost by ~50%% (§9).\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
