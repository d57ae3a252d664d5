// Greedy-guest isolation: an adversarial shadow-mode VM that thrashes its
// shadow page tables as fast as it can, bounded by a kernel-memory quota,
// cannot perturb a victim VM on another CPU. The victim's instruction
// count and completion time are bit-identical to running alone, while the
// adversary is held to its quota by LRU pressure eviction of its own
// shadow contexts.
#include <gtest/gtest.h>

#include <memory>

#include "bench/scenario.h"

namespace nova {
namespace {

constexpr std::uint64_t kGuestMem = 32ull << 20;

// How much forward progress the thrasher must make before a scenario
// ends. The victim's short workload fits inside its first quantum, so the
// run predicate must explicitly demand adversary progress or the
// adversary would never leave the runqueue.
constexpr std::uint64_t kAdversaryGoal = 500;

// The adversary: a shadow-paged guest juggling many address spaces with a
// context switch after every unit — the workload shape that maximizes
// kernel shadow-table allocation. It never finishes on its own.
guest::CompileWorkload::Config AdversaryWorkload() {
  guest::CompileWorkload::Config w;
  w.processes = 6;
  w.ws_pages = 16;
  w.total_units = 1'000'000'000;
  w.compute_cycles = 2000;
  w.mem_bursts = 2;
  w.switch_every = 1;
  w.disk_every = 0;
  w.recycle_every = 40;  // Keep minting fresh address spaces.
  return w;
}

// The victim: the compute-only compile workload from the fault-isolation
// scenario, on its own CPU.
guest::CompileWorkload::Config VictimWorkload() {
  guest::CompileWorkload::Config w;
  w.processes = 2;
  w.ws_pages = 32;
  w.total_units = 300;
  w.compute_cycles = 8000;
  w.mem_bursts = 3;
  w.switch_every = 10;
  w.disk_every = 0;
  w.recycle_every = 150;
  return w;
}

struct GreedyResult {
  bool victim_done = false;
  std::uint64_t victim_insns = 0;
  sim::PicoSeconds victim_ps = 0;
  std::uint64_t adversary_units = 0;
  std::uint64_t adversary_used = 0;
  std::uint64_t adversary_limit = 0;
  std::uint64_t pressure_evicts = 0;
  std::uint64_t vm_errors = 0;
  // Kernel-memory appetite of the adversary right after construction;
  // the probe run uses it to size the pinching quota.
  std::uint64_t adversary_boot_used = 0;
};

// `adversary_quota` == 0: no adversary at all (the victim's solo
// reference run). kUnlimited: adversary present but unbounded (the quota
// probe). Anything else: the real pinched run.
GreedyResult RunScenario(std::uint64_t adversary_quota) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920(), &hw::CoreI7_920()},
                                 .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  system.hv.set_vtlb_policy(hv::VtlbPolicy{.cache_contexts = true});

  // Victim first, so its placement and construction are identical whether
  // or not the adversary exists.
  bench::GuestVm victim(system,
                        vmm::VmmConfig{.name = "victim",
                                       .guest_mem_bytes = kGuestMem,
                                       .first_cpu = 1},
                        bench::GuestVm::Disk::kNone);
  guest::CompileWorkload victim_work(&victim.kernel(), nullptr, VictimWorkload());
  victim.Boot(victim_work.EmitMain());

  std::unique_ptr<bench::GuestVm> greedy;
  std::unique_ptr<guest::CompileWorkload> greedy_work;
  GreedyResult r;
  if (adversary_quota != 0) {
    greedy = std::make_unique<bench::GuestVm>(
        system,
        vmm::VmmConfig{.name = "greedy",
                       .guest_mem_bytes = kGuestMem,
                       .mode = hw::TranslationMode::kShadow,
                       .first_cpu = 0,
                       .kmem_quota_frames = adversary_quota},
        bench::GuestVm::Disk::kNone);
    greedy_work = std::make_unique<guest::CompileWorkload>(
        &greedy->kernel(), nullptr, AdversaryWorkload());
    greedy->Boot(greedy_work->EmitMain());
    r.adversary_boot_used = greedy->vmm().vmm_pd()->kmem().used();
  }

  // The scenario ends when the victim is done AND the adversary has
  // thrashed through its progress goal (the victim finishes first — its
  // workload is tiny — after which only CPU 0 has runnable work).
  system.hv.RunUntilCondition(
      [&victim_work, &greedy_work] {
        return victim_work.done() &&
               (greedy_work == nullptr ||
                greedy_work->units_done() >= kAdversaryGoal);
      },
      sim::Seconds(30));

  r.victim_done = victim_work.done();
  r.victim_insns = system.hv.engine(1).instructions();
  r.victim_ps = system.machine.cpu(1).NowPs();
  if (greedy != nullptr) {
    r.adversary_units = greedy_work->units_done();
    r.adversary_used = greedy->vmm().vmm_pd()->kmem().used();
    r.adversary_limit = greedy->vmm().vmm_pd()->kmem().limit();
    r.pressure_evicts = system.hv.EventCount("vTLB Pressure Evict");
    r.vm_errors = system.hv.EventCount("VM Error");
  }
  return r;
}

TEST(GreedyGuest, QuotaBoundedThrasherCannotPerturbVictim) {
  // Reference: the victim alone.
  const GreedyResult solo = RunScenario(/*adversary_quota=*/0);
  ASSERT_TRUE(solo.victim_done);

  // Probe: adversary unbounded, read its post-construction appetite so
  // the pinching quota is derived, not guessed. Construction is
  // deterministic, so the bounded run consumes the same baseline.
  const GreedyResult probe = RunScenario(hv::KmemQuota::kUnlimited);
  ASSERT_TRUE(probe.victim_done);
  ASSERT_GT(probe.adversary_boot_used, 0u);

  // Real run: the adversary gets its construction baseline plus a shadow
  // working set far smaller than its appetite (6 address spaces, recycled
  // constantly, must share ~24 frames).
  const std::uint64_t quota = probe.adversary_boot_used + 24;
  const GreedyResult pinched = RunScenario(quota);

  // The quota bit: the adversary was forced into pressure eviction, never
  // exceeded its limit, and still made forward progress (no parked vCPU).
  EXPECT_GE(pinched.pressure_evicts, 1u);
  EXPECT_LE(pinched.adversary_used, pinched.adversary_limit);
  EXPECT_EQ(pinched.adversary_limit, quota);
  EXPECT_GE(pinched.adversary_units, kAdversaryGoal);
  EXPECT_EQ(pinched.vm_errors, 0u);

  // The isolation bit: the victim's run is bit-identical to running
  // alone — same instruction count, same completion time — whether the
  // neighbour is unbounded or pinched.
  ASSERT_TRUE(pinched.victim_done);
  EXPECT_EQ(probe.victim_insns, solo.victim_insns);
  EXPECT_EQ(probe.victim_ps, solo.victim_ps);
  EXPECT_EQ(pinched.victim_insns, solo.victim_insns);
  EXPECT_EQ(pinched.victim_ps, solo.victim_ps);
}

}  // namespace
}  // namespace nova
