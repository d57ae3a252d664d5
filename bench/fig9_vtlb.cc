// Figure 9: vTLB-miss microbenchmark, plus the §8.4 optimization ladder.
//
// Part 1 measures the cost of handling one virtual-TLB miss under shadow
// paging: guest/host world switch (exit + resume), the six VMREADs needed
// to determine the miss cause, and the software vTLB fill — per processor
// generation, and with/without VPID on the Core i7.
//
// Part 2 sweeps the vTLB policy ladder (naive -> shadow-context cache ->
// cache + VPID tags) on a guest that alternates between two address
// spaces: the dominant cost of the naive vTLB is rebuilding the shadow
// tree on every MOV CR3, and the ladder eliminates it.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/guest/guest_pt.h"

namespace nova::bench {
namespace {

struct VtlbCost {
  double exit_resume = 0;
  double vmread = 0;
  double fill = 0;
  double total = 0;
  double nanoseconds = 0;
};

VtlbCost MeasureVtlbMiss(const hw::CpuModel* model, int pages) {
  hw::Machine machine(hw::MachineConfig{.cpus = {model}, .ram_size = 512ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();

  hv::Pd* vm = nullptr;
  (void)hv.CreatePd(root, 100, "vm", true, &vm);
  const std::uint64_t base_page = hv.kernel_reserve() >> hw::kPageShift;
  (void)hv.Delegate(root, 100, hv::Crd{hv::CrdKind::kMem, base_page, 14, hv::perm::kRwx}, 0);
  hv::Ec* vcpu = nullptr;
  (void)hv.CreateVcpu(root, 101, 100, 0, 0x200, &vcpu);
  vcpu->ctl().mode = hw::TranslationMode::kShadow;
  vcpu->ctl().nested_root = 0;
  vcpu->ctl().intercept_cr3 = true;
  vcpu->ctl().intercept_invlpg = true;

  auto gpa_to_hpa = [base_page](std::uint64_t gpa) {
    return (base_page << hw::kPageShift) + gpa;
  };
  guest::GuestPageTableBuilder gpt(&machine.mem(), gpa_to_hpa, 0x110000);

  // Guest page table: code identity plus a large data region, pre-mapped
  // and pre-dirtied so every access is a pure vTLB fill (no guest faults).
  (void)gpt.Map(0x100000, 0x1000, 0x1000, hw::kPageSize, hw::pte::kWritable);
  for (int i = 0; i < pages; ++i) {
    (void)gpt.Map(0x100000, 0x400000 + i * hw::kPageSize, 0x400000 + i * hw::kPageSize,
            hw::kPageSize,
            hw::pte::kWritable | hw::pte::kAccessed | hw::pte::kDirty);
  }

  // Guest program: touch each page once (one vTLB miss per iteration).
  hw::isa::Assembler as(0x1000);
  as.MovImm(0, pages);
  as.MovImm(1, 0x400000);
  const std::uint64_t top = as.Load(2, 1, 0);
  as.AddImm(1, hw::kPageSize);
  as.Loop(0, top);
  as.Hlt();
  (void)machine.mem().Write(gpa_to_hpa(0x1000), as.bytes().data(), as.bytes().size());

  hw::GuestState& gs = vcpu->gstate();
  gs.rip = 0x1000;
  gs.cr3 = 0x100000;
  gs.paging = true;

  (void)hv.CreateSc(root, 102, 101, 1, 4'000'000'000ull);
  // Measure: total cycles for the run, minus the loop's own work (measured
  // by a second run where everything already hit the shadow table).
  const sim::Cycles before = machine.cpu(0).cycles();
  hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(50));
  const sim::Cycles first_run = machine.cpu(0).cycles() - before;
  const std::uint64_t fills = hv.EventCount("vTLB Fill");

  // Second pass over the same pages: shadow hits, few fills.
  gs.halted = false;
  gs.rip = 0x1000;
  hv.WakeEc(vcpu);
  const sim::Cycles before2 = machine.cpu(0).cycles();
  hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(100));
  const sim::Cycles second_run = machine.cpu(0).cycles() - before2;

  VtlbCost cost;
  cost.total = static_cast<double>(first_run - second_run) /
               static_cast<double>(fills > 0 ? fills : 1);
  cost.exit_resume = model->vm_exit + model->vm_resume +
                     (model->has_guest_tlb_tags ? 0 : model->tlb_flush);
  const double vmread_cost =
      model->vmread != 0 ? model->vmread : model->mem_access;
  cost.vmread = 6.0 * vmread_cost;
  cost.fill = cost.total - cost.exit_resume - cost.vmread;
  cost.nanoseconds = cost.total * 1e6 / static_cast<double>(model->frequency.khz());
  return cost;
}

// --- Part 2: the optimization ladder ----------------------------------------

struct LadderTotals {
  sim::Cycles cycles = 0;
  std::uint64_t fills = 0;
  std::uint64_t hw_flushes = 0;
  std::uint64_t ctx_hits = 0;
  std::uint64_t ctx_misses = 0;
};

// A guest that alternates between two address spaces, touching kTouch
// pages in each after every switch. One "pass" is A -> B.
constexpr int kTouch = 16;
constexpr std::uint64_t kRootA = 0x100000;
constexpr std::uint64_t kRootB = 0x180000;

LadderTotals RunSwitchWorkload(const hw::CpuModel* model,
                               const hv::VtlbPolicy& policy, int passes) {
  hw::Machine machine(hw::MachineConfig{.cpus = {model}, .ram_size = 512ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();
  hv.set_vtlb_policy(policy);

  hv::Pd* vm = nullptr;
  (void)hv.CreatePd(root, 100, "vm", true, &vm);
  const std::uint64_t base_page = hv.kernel_reserve() >> hw::kPageShift;
  (void)hv.Delegate(root, 100, hv::Crd{hv::CrdKind::kMem, base_page, 14, hv::perm::kRwx}, 0);
  hv::Ec* vcpu = nullptr;
  (void)hv.CreateVcpu(root, 101, 100, 0, 0x200, &vcpu);
  vcpu->ctl().mode = hw::TranslationMode::kShadow;
  vcpu->ctl().nested_root = 0;
  vcpu->ctl().intercept_cr3 = true;
  vcpu->ctl().intercept_invlpg = true;

  auto gpa_to_hpa = [base_page](std::uint64_t gpa) {
    return (base_page << hw::kPageShift) + gpa;
  };
  guest::GuestPageTableBuilder gpt(&machine.mem(), gpa_to_hpa, 0x110000);

  // Both address spaces map the code page identically; their data windows
  // at 0x400000 are backed by disjoint guest-physical ranges. Everything
  // is pre-accessed/pre-dirtied so each touch is a pure vTLB fill.
  constexpr std::uint64_t kLeafFlags =
      hw::pte::kWritable | hw::pte::kAccessed | hw::pte::kDirty;
  for (int i = 0; i < kTouch; ++i) {
    const std::uint64_t va = 0x400000 + static_cast<std::uint64_t>(i) * hw::kPageSize;
    (void)gpt.Map(kRootA, va, va, hw::kPageSize, kLeafFlags);
    (void)gpt.Map(kRootB, va, va + 0x200000, hw::kPageSize, kLeafFlags);
  }
  (void)gpt.Map(kRootA, 0x1000, 0x1000, hw::kPageSize, kLeafFlags);
  (void)gpt.Map(kRootB, 0x1000, 0x1000, hw::kPageSize, kLeafFlags);

  hw::isa::Assembler as(0x1000);
  as.MovImm(0, static_cast<std::uint64_t>(passes));
  const std::uint64_t top = as.MovCr3Imm(kRootA);
  as.MovImm(1, 0x400000);
  as.MovImm(3, kTouch);
  const std::uint64_t inner_a = as.Load(2, 1, 0);
  as.AddImm(1, hw::kPageSize);
  as.Loop(3, inner_a);
  as.MovCr3Imm(kRootB);
  as.MovImm(1, 0x400000);
  as.MovImm(3, kTouch);
  const std::uint64_t inner_b = as.Load(2, 1, 0);
  as.AddImm(1, hw::kPageSize);
  as.Loop(3, inner_b);
  as.Loop(0, top);
  as.Hlt();
  (void)machine.mem().Write(gpa_to_hpa(0x1000), as.bytes().data(), as.bytes().size());

  hw::GuestState& gs = vcpu->gstate();
  gs.rip = 0x1000;
  gs.cr3 = kRootA;
  gs.paging = true;

  (void)hv.CreateSc(root, 102, 101, 1, 4'000'000'000ull);
  const sim::Cycles before = machine.cpu(0).cycles();
  hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(50));

  LadderTotals t;
  t.cycles = machine.cpu(0).cycles() - before;
  t.fills = hv.EventCount("vTLB Fill");
  t.hw_flushes = machine.cpu(0).tlb().flushes().value();
  t.ctx_hits = hv.EventCount("vTLB Context Hit");
  t.ctx_misses = hv.EventCount("vTLB Context Miss");
  return t;
}

void RunLadder(const BenchOptions& opts) {
  PrintHeader(
      "Figure 9 (ladder): address-space switch under the vTLB, "
      "2 spaces x 16 pages, steady state per pass");
  std::printf("%-12s %-13s %12s %14s %14s %10s\n", "CPU", "policy",
              "fills/pass", "hw-flush/pass", "cycles/pass", "ctx hits");

  struct Rung {
    const char* name;
    hv::VtlbPolicy policy;
  };
  const std::vector<Rung> rungs = {
      {"naive", {}},
      {"cached", {.cache_contexts = true}},
      {"cached+VPID", {.cache_contexts = true, .use_vpid = true}},
  };
  const std::vector<const hw::CpuModel*> models = {&hw::CoreDuoT2500(),
                                                   &hw::CoreI7_920()};

  constexpr int kWarm = 1;
  const int kRepeat = opts.smoke ? 4 : 32;  // --smoke: fewer repeats.
  for (const hw::CpuModel* model : models) {
    for (const Rung& rung : rungs) {
      if (rung.policy.use_vpid && !model->has_guest_tlb_tags) {
        continue;  // VPID rung only exists on tagged parts.
      }
      // Steady state = (N passes) - (warm-up pass), per repeat pass: the
      // first pass pays the compulsory fills in every policy.
      const LadderTotals warm = RunSwitchWorkload(model, rung.policy, kWarm);
      const LadderTotals full =
          RunSwitchWorkload(model, rung.policy, kWarm + kRepeat);
      const double fills =
          static_cast<double>(full.fills - warm.fills) / kRepeat;
      const double flushes =
          static_cast<double>(full.hw_flushes - warm.hw_flushes) / kRepeat;
      const double cycles =
          static_cast<double>(full.cycles - warm.cycles) / kRepeat;
      std::printf("%-12s %-13s %12.1f %14.1f %14.0f %10llu\n",
                  model->tag.data(), rung.name, fills, flushes, cycles,
                  static_cast<unsigned long long>(full.ctx_hits));
    }
  }
  std::printf(
      "\nThe naive vTLB rebuilds the shadow tree on every MOV CR3 (~34 "
      "re-fills per pass here). The shadow-context cache reuses the trees "
      "(fills/pass -> 0); VPID tags additionally keep the hardware TLB "
      "warm across the switch (hw-flush/pass -> 0 on tagged parts).\n");
}

void Run(const BenchOptions& opts) {
  const int pages = opts.smoke ? 256 : 4096;  // --smoke: a shorter miss loop.
  PrintHeader("Figure 9: vTLB miss microbenchmark (cycles per miss)");
  std::printf("%-12s %12s %10s %10s %10s %10s\n", "CPU", "exit+resume",
              "6xVMREAD", "vTLB fill", "total", "ns");
  const std::vector<const hw::CpuModel*> models = {
      &hw::CoreDuoT2500(), &hw::Core2DuoE6600(), &hw::Core2DuoE8400(),
      &hw::CoreI7_920_NoVpid(), &hw::CoreI7_920()};
  for (const hw::CpuModel* model : models) {
    const VtlbCost c = MeasureVtlbMiss(model, pages);
    std::printf("%-12s %12.0f %10.0f %10.0f %10.0f %10.0f\n", model->tag.data(),
                c.exit_resume, c.vmread, c.fill, c.total, c.nanoseconds);
  }
  std::printf(
      "\nPaper reference: totals 1355/1140/694/527/491 ns on "
      "YNH/CNR/WFD/BLM(-VPID)/BLM(+VPID); the hardware transition accounts "
      "for ~80%% of the total, falling with each processor generation.\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  const nova::bench::BenchOptions opts = nova::bench::ParseBenchArgs(argc, argv);
  nova::bench::Run(opts);
  nova::bench::RunLadder(opts);
  return 0;
}
