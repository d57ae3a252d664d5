// End-to-end failure isolation (§4.2): a VMM is killed mid-disk-workload,
// the supervisor detects the stale heartbeat, destroys the dead VM and
// VMM domains, and restarts the monitor over the surviving guest RAM. The
// victim VM resumes and completes its workload; a second VM compiling on
// another CPU is untouched — its counters are byte-identical to a
// fault-free run.
#include <functional>

#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"
#include "src/sim/fault.h"

namespace nova {
namespace {

struct ScenarioResult {
  bool a_done = false;
  std::uint64_t a_completed = 0;
  std::uint64_t a_retries = 0;
  std::uint64_t recoveries = 0;
  // VM B's progress markers, sampled the moment its workload finishes.
  bool b_done = false;
  std::uint64_t b_done_insns = 0;
  sim::PicoSeconds b_done_ps = 0;
  std::uint64_t frames_in_use = 0;
};

constexpr std::uint64_t kGuestMem = 32ull << 20;
constexpr std::uint64_t kDiskRequests = 150;

ScenarioResult RunScenario(bool crash) {
  root::SystemConfig sc;
  sc.machine = hw::MachineConfig{.cpus = {&hw::CoreI7_920(), &hw::CoreI7_920()},
                                 .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  system.StartDiskServer();  // Its domain precedes the VMM's.

  // --- VM A: disk workload on CPU 0, supervised, crash candidate --------
  sim::FaultPlan plan(/*seed=*/7);
  if (crash) {
    plan.Schedule({.at = sim::Milliseconds(2),
                   .kind = sim::FaultKind::kVmmCrash,
                   .target = "a",
                   .count = 1,
                   .rate = 1.0});
  }
  plan.Arm(&system.machine.events());

  bench::GuestVm vm_a(
      system,
      vmm::VmmConfig{.name = "a", .guest_mem_bytes = kGuestMem, .first_cpu = 0},
      bench::GuestVm::Disk::kServerWithErrors);
  vm_a.vmm().SetFaultPlan(&plan);
  guest::DiskWorkload workload_a(
      &vm_a.kernel(), vm_a.driver(),
      guest::DiskWorkload::Config{.block_bytes = 4096,
                                  .total_requests = kDiskRequests});
  vm_a.Boot(workload_a.EmitMain());

  // --- VM B: compute-only kernel compile on CPU 1 -----------------------
  bench::GuestVm vm_b(
      system,
      vmm::VmmConfig{.name = "b", .guest_mem_bytes = kGuestMem, .first_cpu = 1},
      bench::GuestVm::Disk::kNone);
  guest::CompileWorkload::Config wb;
  wb.processes = 2;
  wb.ws_pages = 32;
  wb.total_units = 300;
  wb.compute_cycles = 8000;
  wb.mem_bursts = 3;
  wb.switch_every = 10;
  wb.disk_every = 0;  // Compute-only: CPU 1 shares nothing with VM A.
  wb.recycle_every = 150;
  guest::CompileWorkload workload_b(&vm_b.kernel(), nullptr, wb);
  vm_b.Boot(workload_b.EmitMain());

  // --- Supervision + restart policy -------------------------------------
  // The restart rebuilds the monitor over the surviving guest RAM and
  // resumes the guest exactly where it stopped.
  root::VmmSupervisor::Config supc;
  supc.check_period_ps = sim::Microseconds(200);
  root::VmmSupervisor supervisor(&system.hv, system.root.get(), supc);
  EXPECT_EQ(supervisor.Watch(&vm_a.vmm(),
                             [&vm_a](const root::VmmSupervisor::RecoveryInfo& info) {
                               vm_a.Restart(info);
                             }),
            Status::kSuccess);

  ScenarioResult r;
  system.hv.RunUntilCondition(
      [&] {
        if (!r.b_done && workload_b.done()) {
          r.b_done = true;
          r.b_done_insns = system.hv.engine(1).instructions();
          r.b_done_ps = system.machine.cpu(1).NowPs();
        }
        return workload_a.done() && workload_b.done();
      },
      sim::Seconds(30));

  r.a_done = workload_a.done();
  r.a_completed = workload_a.completed();
  r.a_retries = vm_a.driver()->retried();
  r.recoveries = supervisor.recoveries();
  r.frames_in_use = system.hv.FramesInUse();
  return r;
}

TEST(FaultIsolation, VmmCrashRecoversAndNeighborIsUnaffected) {
  const ScenarioResult clean = RunScenario(/*crash=*/false);
  ASSERT_TRUE(clean.a_done);
  ASSERT_TRUE(clean.b_done);
  EXPECT_EQ(clean.recoveries, 0u);
  EXPECT_EQ(clean.a_completed, kDiskRequests);
  EXPECT_EQ(clean.a_retries, 0u);

  const ScenarioResult faulted = RunScenario(/*crash=*/true);
  // VM A's VMM was killed and restarted; the workload still completed.
  EXPECT_EQ(faulted.recoveries, 1u);
  ASSERT_TRUE(faulted.a_done);
  EXPECT_EQ(faulted.a_completed, kDiskRequests);
  // The in-flight requests at crash time were re-issued by the driver.
  EXPECT_GE(faulted.a_retries, 1u);

  // VM B never noticed: identical instruction count and completion time.
  ASSERT_TRUE(faulted.b_done);
  EXPECT_EQ(faulted.b_done_insns, clean.b_done_insns);
  EXPECT_EQ(faulted.b_done_ps, clean.b_done_ps);
}

TEST(FaultIsolation, RecoveryReclaimsKernelFrames) {
  // The crash-and-restart cycle must not leak kernel frames: the restarted
  // system holds one VMM + one VM, exactly like the clean run.
  const ScenarioResult clean = RunScenario(/*crash=*/false);
  const ScenarioResult faulted = RunScenario(/*crash=*/true);
  EXPECT_EQ(faulted.frames_in_use, clean.frames_in_use);
}

// Heartbeat words live only in pages the root allocated for heartbeats.
// Every watch takes a fresh word, so a page fills after 512 of them; the
// next word must not land in the page the root handed out after it.
TEST(VmmSupervisor, HeartbeatsStayInTheirOwnPages) {
  root::NovaSystem system;
  vmm::Vmm vm(&system.hv, system.root.get(),
              vmm::VmmConfig{.guest_mem_bytes = 4ull << 20});
  root::VmmSupervisor supervisor(&system.hv, system.root.get());
  ASSERT_EQ(supervisor.Watch(&vm, nullptr), Status::kSuccess);

  const hw::PhysAddr neighbour = system.root->AllocPages(1) << hw::kPageShift;
  ASSERT_NE(neighbour, 0u);
  constexpr std::uint64_t kSentinel = 0x5e7715e75e7715e7;
  ASSERT_EQ(system.machine.mem().Write64(neighbour, kSentinel), Status::kSuccess);
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(supervisor.Watch(&vm, nullptr), Status::kSuccess);
  }
  EXPECT_EQ(system.machine.mem().Read64(neighbour), kSentinel);
}

TEST(VmmSupervisor, WatchWithoutAHeartbeatPageFails) {
  root::NovaSystem system;
  vmm::Vmm vm(&system.hv, system.root.get(),
              vmm::VmmConfig{.guest_mem_bytes = 4ull << 20});
  for (std::uint64_t pages = 1ull << 20; pages != 0; pages /= 2) {
    while (system.root->AllocPages(pages) != 0) {
    }
  }
  root::VmmSupervisor supervisor(&system.hv, system.root.get());
  const std::uint64_t word_at_zero = system.machine.mem().Read64(0);
  EXPECT_EQ(supervisor.Watch(&vm, nullptr), Status::kNoMem);
  // No heartbeat started: nothing beat into physical address 0.
  EXPECT_EQ(system.machine.mem().Read64(0), word_at_zero);
}

// A re-watch from the restart callback takes over the recovered entry and
// its heartbeat word: however often the VMM dies, one word beats.
TEST(VmmSupervisor, RewatchAfterRestartReusesTheHeartbeatWord) {
  root::NovaSystem system;
  system.StartDiskServer();  // Its domain precedes the VMM's.
  constexpr std::uint64_t kCrashes = 3;
  sim::FaultPlan plan(/*seed=*/7);
  for (std::uint64_t i = 0; i < kCrashes; ++i) {
    plan.Schedule({.at = sim::Milliseconds(1 + 2 * i),
                   .kind = sim::FaultKind::kVmmCrash,
                   .target = "a",
                   .count = 1,
                   .rate = 1.0});
  }
  plan.Arm(&system.machine.events());

  bench::GuestVm vm(system,
                    vmm::VmmConfig{.name = "a", .guest_mem_bytes = kGuestMem},
                    bench::GuestVm::Disk::kServerWithErrors);
  vm.vmm().SetFaultPlan(&plan);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = 4096,
                                  .total_requests = kDiskRequests});
  vm.Boot(workload.EmitMain());

  root::VmmSupervisor::Config supc;
  supc.check_period_ps = sim::Microseconds(200);
  root::VmmSupervisor supervisor(&system.hv, system.root.get(), supc);
  std::function<void(const root::VmmSupervisor::RecoveryInfo&)> restart;
  restart = [&](const root::VmmSupervisor::RecoveryInfo& info) {
    vm.Restart(info);
    vm.vmm().SetFaultPlan(&plan);  // The replacement can crash again.
    EXPECT_EQ(supervisor.Watch(&vm.vmm(), restart), Status::kSuccess);
  };
  // The root hands out pages in order: the heartbeat page is the next one.
  const std::uint64_t before = system.root->AllocPages(1);
  ASSERT_NE(before, 0u);
  ASSERT_EQ(supervisor.Watch(&vm.vmm(), restart), Status::kSuccess);
  system.hv.RunUntilCondition(
      [&] { return supervisor.recoveries() >= kCrashes; }, sim::Seconds(30));
  ASSERT_EQ(supervisor.recoveries(), kCrashes);

  const hw::PhysAddr hb_page = (before + 1) << hw::kPageShift;
  EXPECT_NE(system.machine.mem().Read64(hb_page), 0u);
  for (std::uint64_t word = 1; word < hw::kPageSize / sizeof(std::uint64_t);
       ++word) {
    EXPECT_EQ(system.machine.mem().Read64(hb_page + word * sizeof(std::uint64_t)),
              0u)
        << "heartbeat word " << word;
  }
}

}  // namespace
}  // namespace nova
