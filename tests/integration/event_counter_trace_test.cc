// Every counter the hypervisor registers equals the number of trace records
// its row emits, traced from the counter reset: instants, or spans for the
// two IPC rows (every span here closes, so completed spans equal Begins).
// bench/tab2_events checks only the Table 2 rows; this covers every row,
// under EPT, under each vTLB rung, and on four cores with xcalls, TLB
// shootdowns and lock contention.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "bench/scenario.h"
#include "tests/hv/test_util.h"

namespace nova {
namespace {

// Rows whose trace name differs from the counter's.
const std::map<std::string, std::string> kTraceName = {
    {"gsi-delivered", "GSI Delivered"},
    {"ipc-calls", "IPC Call"},
    {"ipc-xcalls", "IPC Xcall"},
    {"vm-event-ipc", "VM Event IPC"},
};

using bench::MeasuredWindow;

void ExpectCountersMatchTrace(const MeasuredWindow& t) {
  for (const auto& [name, counter] : t.counters.counters()) {
    const auto renamed = kTraceName.find(name);
    const std::string row = renamed == kTraceName.end() ? name : renamed->second;
    const auto it = t.trace_rows.find(row);
    EXPECT_EQ(counter.value(), it == t.trace_rows.end() ? 0 : it->second.count)
        << name;
  }
}

MeasuredWindow TraceCompile(hw::TranslationMode mode, hv::VtlbPolicy vtlb = {}) {
  bench::RunConfig config;
  config.mode = mode;
  config.vtlb = vtlb;
  config.workload.processes = 2;
  config.workload.ws_pages = 64;
  config.workload.total_units = 400;
  config.workload.compute_cycles = 8000;
  config.workload.mem_bursts = 3;
  config.workload.switch_every = 10;
  config.workload.disk_every = 80;
  bench::CompileScenario scenario(config);
  root::NovaSystem& system = scenario.system();
  return bench::MeasureWindow(system.hv, /*trace=*/true, [&] {
    scenario.RunUntilDone(sim::Seconds(120));
  });
}

TEST(EventCounterTrace, CompileUnderEpt) {
  const MeasuredWindow t = TraceCompile(hw::TranslationMode::kNested);
  ExpectCountersMatchTrace(t);
  for (const char* row : {"Memory-Mapped I/O", "Port I/O", "vm-event-ipc",
                          "ipc-calls", "gsi-delivered"}) {
    EXPECT_GT(t.counters.Value(row), 0u) << row;
  }
}

TEST(EventCounterTrace, CompileUnderEveryVtlbRung) {
  const std::array<std::pair<const char*, hv::VtlbPolicy>, 3> rungs = {{
      {"naive", {}},
      {"cached", {.cache_contexts = true}},
      {"cached+vpid", {.cache_contexts = true, .use_vpid = true}},
  }};
  for (const auto& [rung, policy] : rungs) {
    SCOPED_TRACE(rung);
    const MeasuredWindow t = TraceCompile(hw::TranslationMode::kShadow, policy);
    ExpectCountersMatchTrace(t);
    EXPECT_GT(t.counters.Value("vTLB Fill"), 0u);
    if (policy.cache_contexts) {
      EXPECT_GT(t.counters.Value("vTLB Context Hit"), 0u);
      EXPECT_GT(t.counters.Value("vTLB Context Miss"), 0u);
    } else {
      EXPECT_GT(t.counters.Value("vTLB Flush"), 0u);
    }
  }
}

class FourCoreTest : public hv::HvTest {
 protected:
  FourCoreTest()
      : HvTest(hw::MachineConfig{
            .cpus = {&hw::CoreI7_920(), &hw::CoreI7_920(), &hw::CoreI7_920(),
                     &hw::CoreI7_920()},
            .ram_size = 512ull << 20}) {}
};

TEST_F(FourCoreTest, XcallsShootdownsAndLockContention) {
  // One thread per core; each step calls a portal served on the next core,
  // so every call is an xcall and the cores take the xcall lock in turn.
  constexpr std::uint32_t kCores = 4;
  std::array<hv::Ec*, kCores> threads{};
  for (std::uint32_t c = 0; c < kCores; ++c) {
    const hv::CapSel base = 100 + 4 * c;
    const std::uint32_t server = (c + 1) % kCores;
    ASSERT_EQ(hv_.CreateEcLocal(root_, base, hv::kSelOwnPd, server,
                                [this, server](std::uint64_t) {
                                  machine_.cpu(server).Charge(2'000);
                                }),
              Status::kSuccess);
    ASSERT_EQ(hv_.CreatePt(root_, base + 1, base, 0, c), Status::kSuccess);
    ASSERT_EQ(hv_.CreateEcGlobal(root_, base + 2, hv::kSelOwnPd, c,
                                 [this, &threads, c, base] {
                                   ASSERT_EQ(hv_.Call(threads[c], base + 1),
                                             Status::kSuccess);
                                 },
                                 &threads[c]),
              Status::kSuccess);
    ASSERT_EQ(hv_.CreateSc(root_, base + 3, base + 2, 1, 50'000),
              Status::kSuccess);
  }
  // A VM whose translations every core cached (RunVcpu notes each core a
  // vCPU runs on) loses memory: each remote core is shot down.
  constexpr hv::CapSel kVmSel = 90;
  hv::Pd* vm = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, kVmSel, "vm", true, &vm), Status::kSuccess);
  const std::uint64_t page = hv_.kernel_reserve() >> hw::kPageShift;
  ASSERT_EQ(hv_.Delegate(root_, kVmSel, hv::Crd::Mem(page, 2, hv::perm::kRwx), 0),
            Status::kSuccess);
  for (std::uint32_t c = 0; c < kCores; ++c) {
    vm->NoteCore(c);
  }

  const MeasuredWindow t = bench::MeasureWindow(hv_, /*trace=*/true, [&] {
    for (int i = 0; i < 400 && hv_.StepOnce(); ++i) {
    }
    ASSERT_EQ(hv_.Revoke(root_, hv::Crd::Mem(page, 2, hv::perm::kRwx),
                         /*include_self=*/false),
              Status::kSuccess);
  });
  ExpectCountersMatchTrace(t);
  for (const char* row : {"ipc-calls", "ipc-xcalls", "TLB Shootdown",
                          "lock-contention"}) {
    EXPECT_GT(t.counters.Value(row), 0u) << row;
  }
  EXPECT_EQ(t.counters.Value("ipc-xcalls"), t.counters.Value("ipc-calls"));
}

}  // namespace
}  // namespace nova
