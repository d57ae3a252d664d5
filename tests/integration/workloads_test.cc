// The evaluation workloads themselves, run short end-to-end: these guard
// the benchmark pipeline (fig5/fig6/fig7) against regressions.
#include <gtest/gtest.h>

#include "bench/common.h"
#include "bench/scenario.h"
#include "src/guest/driver_nic.h"
#include "src/guest/workload_udp.h"

namespace nova::bench {
namespace {

guest::CompileWorkload::Config ShortCompile() {
  guest::CompileWorkload::Config w;
  w.processes = 2;
  w.ws_pages = 64;
  w.total_units = 400;
  w.compute_cycles = 8000;
  w.mem_bursts = 3;
  w.switch_every = 10;
  w.disk_every = 80;
  w.recycle_every = 200;
  return w;
}

TEST(CompileWorkload, RunsToCompletionNative) {
  RunConfig c;
  c.stack = StackKind::kNative;
  c.workload = ShortCompile();
  const RunResult r = RunCompile(c);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_LT(r.seconds, 10.0);
  EXPECT_GT(r.guest_insns, 1000u);
}

TEST(CompileWorkload, NovaSlowerThanNativeButClose) {
  RunConfig native;
  native.stack = StackKind::kNative;
  native.workload = ShortCompile();
  RunConfig nova_cfg = native;
  nova_cfg.stack = StackKind::kNova;

  const double native_s = RunCompile(native).seconds;
  const RunResult nova_r = RunCompile(nova_cfg);
  EXPECT_GT(nova_r.seconds, native_s);            // Virtualization costs.
  EXPECT_LT(nova_r.seconds, native_s * 1.5);  // ...but bounded (short run
                                              // amplifies per-exit share).
  EXPECT_GT(nova_r.exits, 0u);
  // Under nested paging there are no paging-related exits at all.
  EXPECT_EQ(nova_r.stats.Value("vTLB Fill"), 0u);
  EXPECT_EQ(nova_r.stats.Value("Guest Page Fault"), 0u);
}

TEST(CompileWorkload, ShadowPagingCostsMoreAndFillsVtlb) {
  RunConfig ept;
  ept.stack = StackKind::kNova;
  ept.workload = ShortCompile();
  RunConfig shadow = ept;
  shadow.mode = hw::TranslationMode::kShadow;

  const double ept_s = RunCompile(ept).seconds;
  const RunResult shadow_r = RunCompile(shadow);
  EXPECT_GT(shadow_r.seconds, ept_s * 1.05);
  EXPECT_GT(shadow_r.stats.Value("vTLB Fill"), 100u);
  EXPECT_GT(shadow_r.stats.Value("vTLB Flush"), 10u);
  // Every context switch was intercepted as a CR write.
  EXPECT_GE(shadow_r.stats.Value("CR Read/Write"),
            shadow_r.stats.Value("vTLB Flush"));
}

TEST(CompileWorkload, DeterministicAcrossRuns) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload = ShortCompile();
  const RunResult a = RunCompile(c);
  const RunResult b = RunCompile(c);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.exits, b.exits);
  EXPECT_EQ(a.guest_insns, b.guest_insns);
}

// Destroying a node frees its whole kernel object graph. Domains, their
// capability spaces and their ECs reference each other in cycles, which
// the hypervisor breaks at teardown; a leak here grows every process that
// builds nodes repeatedly (benchmark episodes, migration twins).
TEST(CompileWorkload, DestroyedNodeFreesEveryKernelObject) {
  for (const hw::TranslationMode mode :
       {hw::TranslationMode::kNested, hw::TranslationMode::kShadow}) {
    RunConfig c;
    c.mode = mode;
    c.vtlb.cache_contexts = true;
    c.workload = ShortCompile();
    std::vector<std::weak_ptr<hv::KObject>> objects;
    {
      CompileScenario scn(c);
      scn.RunFor(sim::Milliseconds(20));
      const hv::Hypervisor& hv = scn.system().hv;
      for (std::uint64_t oid = 0; oid < hv.ObjectCount(); ++oid) {
        objects.push_back(hv.ObjectByOid(oid));
      }
    }
    ASSERT_GT(objects.size(), 10u);
    for (std::size_t oid = 0; oid < objects.size(); ++oid) {
      EXPECT_TRUE(objects[oid].expired())
          << "object " << oid << " outlived its node (mode "
          << static_cast<int>(mode) << ")";
    }
  }
}

TEST(UdpWorkload, ReceivesStreamBareMetal) {
  NativeGuest native(&hw::CoreI7_920(), /*timer_hz=*/0, /*host_ahci=*/false);
  guest::GuestNicDriver driver(&native.kernel(),
                               guest::GuestNicDriver::Config{
                                   .mmio_base = root::kNicMmioBase,
                                   .irq_vector = kHostNicVector,
                                   .packet_bytes = 1472});
  guest::UdpWorkload workload(&native.kernel(), &driver);
  native.Boot(workload.EmitMain());

  root::Platform& platform = native.platform();
  platform.link->StartStream(/*mbit=*/100, /*packet_bytes=*/1472);
  native.runner().RunUntil([&] { return workload.packets() >= 50; },
                           sim::Seconds(1));
  platform.link->Stop();

  EXPECT_GE(workload.packets(), 50u);
  EXPECT_EQ(platform.nic->packets_dropped(), 0u);
  // The payload copy landed in the application buffer.
  std::uint8_t first = 0;
  (void)native.machine().mem().Read(0x7a0000, &first, 1);
  EXPECT_EQ(first, 0xee);  // Frame header fill byte from the generator.
}

TEST(UdpWorkload, CoalescingLimitsInterruptRate) {
  NativeGuest native(&hw::CoreI7_920(), /*timer_hz=*/0, /*host_ahci=*/false);
  guest::GuestNicDriver driver(&native.kernel(),
                               guest::GuestNicDriver::Config{
                                   .mmio_base = root::kNicMmioBase,
                                   .irq_vector = kHostNicVector,
                                   .packet_bytes = 64});
  guest::UdpWorkload workload(&native.kernel(), &driver);
  native.Boot(workload.EmitMain());

  // 100 Mbit/s of 64-byte packets ~= 195 kpps; coalescing caps interrupts
  // near 20 k/s (§8.3).
  root::Platform& platform = native.platform();
  platform.link->StartStream(100, 64);
  native.runner().RunUntil([] { return false; }, sim::Milliseconds(100));
  platform.link->Stop();
  const double irq_rate = platform.nic->interrupts_raised() / 0.1;
  EXPECT_LT(irq_rate, 25'000);
  EXPECT_GT(workload.packets(), 10'000u);
}

}  // namespace
}  // namespace nova::bench
