// Snapshot/restore round-trips: a scenario checkpointed mid-run and
// restored onto a twin must continue with a bit-identical trace digest —
// the snapshot is complete or it is nothing (DESIGN.md §13).
#include <gtest/gtest.h>

#include "bench/scenario.h"

namespace nova::bench {
namespace {

constexpr sim::PicoSeconds kDeadline = sim::Seconds(120);

RunConfig ShortConfig(std::uint64_t seed) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = 64;
  c.workload.total_units = 400;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 200;
  c.workload.seed = seed;
  return c;
}

// Advance to a mid-run point: half the compile units retired.
void RunToMidpoint(CompileScenario& scn) {
  guest::CompileWorkload* w = &scn.workload();
  const std::uint64_t half = scn.config().workload.total_units / 2;
  scn.system().hv.RunUntilCondition(
      [w, half] { return w->units_done() >= half; }, kDeadline);
  ASSERT_FALSE(scn.done());
}

struct Tail {
  std::uint64_t digest = 0;
  std::uint64_t units = 0;
  std::uint64_t exits = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t disk_reads = 0;
  double seconds = 0;
};

// Run the rest of the workload with the tracer on; the digest covers
// every event from this call to completion.
Tail FinishTraced(CompileScenario& scn) {
  sim::Tracer& tracer = scn.system().machine.tracer();
  tracer.Reset();
  tracer.set_enabled(true);
  scn.RunUntilDone(kDeadline);
  tracer.set_enabled(false);
  Tail t;
  t.digest = tracer.digest();
  t.units = scn.workload().units_done();
  t.exits = scn.vm().exits_handled();
  t.page_faults = scn.workload().page_faults_expected();
  t.disk_reads = scn.workload().disk_reads();
  t.seconds = static_cast<double>(scn.now()) /
              static_cast<double>(sim::kPicosPerSecond);
  return t;
}

class SnapshotRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTrip, RestoredTwinContinuesBitIdentically) {
  const RunConfig config = ShortConfig(GetParam());

  CompileScenario original(config);
  RunToMidpoint(original);
  sim::Snapshot snap;
  ASSERT_EQ(original.SaveState(snap), Status::kSuccess);
  // The wire encoding must survive encode/decode (what migration ships).
  sim::Snapshot shipped;
  ASSERT_EQ(shipped.Decode(snap.Encode()), Status::kSuccess);

  CompileScenario twin(config);
  ASSERT_EQ(twin.LoadState(shipped), Status::kSuccess);

  const Tail a = FinishTraced(original);
  const Tail b = FinishTraced(twin);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.units, b.units);
  EXPECT_EQ(a.exits, b.exits);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST_P(SnapshotRoundTrip, SaveLoadSaveIsByteIdentical) {
  const RunConfig config = ShortConfig(GetParam());

  CompileScenario original(config);
  RunToMidpoint(original);
  sim::Snapshot first;
  ASSERT_EQ(original.SaveState(first), Status::kSuccess);

  CompileScenario twin(config);
  ASSERT_EQ(twin.LoadState(first), Status::kSuccess);
  sim::Snapshot second;
  ASSERT_EQ(twin.SaveState(second), Status::kSuccess);
  // save ∘ load is the identity on the serialized state: restoring and
  // immediately re-checkpointing reproduces the snapshot byte for byte.
  EXPECT_EQ(first.Encode(), second.Encode());
}

INSTANTIATE_TEST_SUITE_P(MultiSeed, SnapshotRoundTrip,
                         ::testing::Values(42u, 7u, 1234u));

// The wire format is pinned: migration prices stop-and-copy downtime from
// Snapshot::PayloadBytes(), so a moved byte moves bench output. Each row is
// (section, payload bytes, FNV-1a of the payload) for the seed-42 scenario
// checkpointed at the midpoint.
struct GoldenSection {
  const char* name;
  std::size_t bytes;
  std::uint64_t digest;
};

void ExpectEncodingMatches(const RunConfig& config, std::uint64_t payload,
                           const std::vector<GoldenSection>& golden) {
  CompileScenario scn(config);
  if (scn.system().machine.num_cpus() != 1) {
    GTEST_SKIP() << "the pinned encoding is the one-CPU machine's";
  }
  RunToMidpoint(scn);
  sim::Snapshot snap;
  ASSERT_EQ(scn.SaveState(snap), Status::kSuccess);

  std::vector<std::string> names;
  for (const GoldenSection& g : golden) {
    names.emplace_back(g.name);
  }
  ASSERT_EQ(snap.SectionNames(), names);
  for (const GoldenSection& g : golden) {
    ASSERT_EQ(snap.SectionVersion(g.name), 1) << g.name;
    sim::SnapReader r = snap.Open(g.name, 1);
    std::vector<std::uint8_t> bytes;
    while (!r.AtEnd()) {
      bytes.push_back(r.U8());
    }
    ASSERT_EQ(bytes.size(), g.bytes) << "first differing section: " << g.name;
    ASSERT_EQ(sim::SnapFnv1a(bytes.data(), bytes.size()), g.digest)
        << "first differing section: " << g.name;
  }
  EXPECT_EQ(snap.PayloadBytes(), payload);
}

TEST(SnapshotRoundTrip, EncodingMatchesGolden) {
  ExpectEncodingMatches(
      ShortConfig(42), 1955868,
      {{"guest.driver", 36, 0x8784d121986dd086ull},
       {"guest.kernel", 24, 0x2da1791f684fadffull},
       {"guest.workload", 453, 0xc47c5a9aaddb2862ull},
       {"hv.kernel", 1228373, 0xd9369e3f9ef761b4ull},
       {"hw.ahci", 16888, 0xf11804c9c7db6683ull},
       {"hw.cpus", 121, 0xff8650df9943e10eull},
       {"hw.disk", 44, 0x0f620c2c76006167ull},
       {"hw.iommu", 61, 0x7356a2766d51878dull},
       {"hw.irq", 1280, 0xaec8e5e567693e31ull},
       {"hw.mem", 705904, 0x257935f47426df87ull},
       {"hw.netlink", 37, 0x26de9286e55e50cfull},
       {"hw.nic", 81, 0x0edbe9edbe9a769full},
       {"hw.timer", 26, 0x17f8dd1ca2b90acdull},
       {"hw.uart", 4, 0x4d25767f9dce13f5ull},
       {"root.pm", 20, 0x47090b7c007fd75eull},
       {"root.sys", 1, 0xaf63bc4c8601b62cull},
       {"sim.events", 84, 0xf2f654fef3d3cfbaull},
       {"sim.stats", 4, 0x4d25767f9dce13f5ull},
       {"sim.trace", 737, 0xba0f1ef19cbe3605ull},
       {"svc.disk", 1425, 0x4bbd138196d0dc67ull},
       {"vmm.guest", 265, 0xb53415e760a38a74ull}});
}

// Same pin for the shadow-paging stack, whose vCPU carries a vTLB and
// whose CPU TLBs hold tagged guest entries.
TEST(SnapshotRoundTrip, ShadowEncodingMatchesGolden) {
  RunConfig config = ShortConfig(42);
  config.mode = hw::TranslationMode::kShadow;
  config.vtlb.cache_contexts = true;
  config.vtlb.use_vpid = true;
  ExpectEncodingMatches(
      config, 1985970,
      {{"guest.driver", 36, 0x8784d121986dd086ull},
       {"guest.kernel", 24, 0x6e76da25bf934df5ull},
       {"guest.workload", 413, 0x88fcf2dc333132beull},
       {"hv.kernel", 1228604, 0x559289254bb1232eull},
       {"hw.ahci", 16888, 0xf11804c9c7db6683ull},
       {"hw.cpus", 5308, 0x9993a7fad7ecbe05ull},
       {"hw.disk", 44, 0xfef3af0e8ff0228aull},
       {"hw.iommu", 61, 0x7356a2766d51878dull},
       {"hw.irq", 1280, 0xaec8e5e567693e31ull},
       {"hw.mem", 730528, 0x2e007623295e3dc0ull},
       {"hw.netlink", 37, 0x26de9286e55e50cfull},
       {"hw.nic", 81, 0x0edbe9edbe9a769full},
       {"hw.timer", 26, 0x17f8dd1ca2b90acdull},
       {"hw.uart", 4, 0x4d25767f9dce13f5ull},
       {"root.pm", 20, 0x47090b7c007fd75eull},
       {"root.sys", 1, 0xaf63bc4c8601b62cull},
       {"sim.events", 84, 0x1ac22cfecb0aa3c1ull},
       {"sim.stats", 4, 0x4d25767f9dce13f5ull},
       {"sim.trace", 837, 0x536abb92a190288bull},
       {"svc.disk", 1425, 0x4bbd138196d0dc67ull},
       {"vmm.guest", 265, 0xb53415e760a38a74ull}});
}

TEST(SnapshotRoundTrip, StructurallyMismatchedTwinFailsLoudly) {
  CompileScenario original(ShortConfig(42));
  RunToMidpoint(original);
  sim::Snapshot snap;
  ASSERT_EQ(original.SaveState(snap), Status::kSuccess);

  RunConfig other = ShortConfig(42);
  other.workload.processes = 3;  // Different object graph.
  CompileScenario mismatched(other);
  EXPECT_NE(mismatched.LoadState(snap), Status::kSuccess);
}

}  // namespace
}  // namespace nova::bench
