// Golden-trace regression tests: two full VM-boot runs with the same seed,
// under EPT and under the vTLB, must produce bit-identical trace digests
// whatever the heap looks like; changing the workload seed must change the
// digest; enabling tracing must not perturb any architectural result; and
// the TraceReport attribution must agree with the independent counter
// registry for every Table 2 row.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"

namespace nova::bench {
namespace {

// Table 2 rows whose counters are mirrored as trace instants at the same
// call sites (see bench/tab2_events.cc).
const char* kTab2Rows[] = {
    "vTLB Fill",        "Guest Page Fault", "CR Read/Write", "vTLB Flush",
    "Port I/O",         "INVLPG",           "Hardware Interrupts",
    "Memory-Mapped I/O", "HLT",             "Interrupt Window",
    "Recall",           "CPUID",
};

guest::CompileWorkload::Config ShortCompile(std::uint64_t seed = 42) {
  guest::CompileWorkload::Config w;
  w.processes = 2;
  w.ws_pages = 64;
  w.total_units = 400;
  w.compute_cycles = 8000;
  w.mem_bursts = 3;
  w.switch_every = 10;
  w.disk_every = 80;
  w.seed = seed;
  return w;
}

RunConfig TracedConfig(std::uint64_t seed = 42,
                       hw::TranslationMode mode = hw::TranslationMode::kNested) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.mode = mode;
  c.workload = ShortCompile(seed);
  c.trace = true;
  return c;
}

struct Translation {
  const char* name;
  hw::TranslationMode mode;
  hv::VtlbPolicy vtlb;
};

class TraceDeterminismTest : public ::testing::TestWithParam<Translation> {};

// Two full VM boots with one seed give one digest, also when the second
// run starts from another heap: a few hundred blocks of mixed sizes, live
// across it, move every allocation it makes. An address folded into the
// trace, or an order taken from addresses, would show up as a mismatch.
TEST_P(TraceDeterminismTest, SameSeedSameDigestAcrossFullVmBoots) {
  RunConfig config = TracedConfig(42, GetParam().mode);
  config.vtlb = GetParam().vtlb;
  const RunResult first = RunCompile(config);
  std::vector<std::unique_ptr<char[]>> held;
  for (std::size_t i = 0; i < 300; ++i) {
    held.push_back(std::make_unique<char[]>(std::size_t{24} << (i % 12)));
  }
  const RunResult second = RunCompile(config);
  ASSERT_FALSE(first.trace_rows.empty());
  EXPECT_NE(first.trace_digest, 0u);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.trace_rows, second.trace_rows);
  EXPECT_EQ(first.seconds, second.seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Translations, TraceDeterminismTest,
    ::testing::Values(
        Translation{"NestedEpt", hw::TranslationMode::kNested, hv::VtlbPolicy{}},
        Translation{"ShadowCtxCacheVpid", hw::TranslationMode::kShadow,
                    hv::VtlbPolicy{.cache_contexts = true, .use_vpid = true}}),
    [](const auto& test) { return std::string(test.param.name); });

TEST(TraceGoldenTest, DigestChangesWithWorkloadSeed) {
  const RunResult base = RunCompile(TracedConfig(42));
  const RunResult other = RunCompile(TracedConfig(43));
  EXPECT_NE(base.trace_digest, other.trace_digest);
}

TEST(TraceGoldenTest, TracingDoesNotPerturbArchitecturalResults) {
  RunConfig traced = TracedConfig();
  RunConfig untraced = traced;
  untraced.trace = false;

  const RunResult on = RunCompile(traced);
  const RunResult off = RunCompile(untraced);
  // Tracing charges no cycles and touches no architectural state: timing,
  // exit counts and every event counter must be bit-identical.
  EXPECT_EQ(on.seconds, off.seconds);
  EXPECT_EQ(on.exits, off.exits);
  EXPECT_EQ(on.guest_insns, off.guest_insns);
  for (const char* row : kTab2Rows) {
    EXPECT_EQ(on.stats.Value(row), off.stats.Value(row)) << row;
  }
  EXPECT_EQ(off.trace_digest, 0u);
  EXPECT_TRUE(off.trace_rows.empty());
}

TEST(TraceGoldenTest, TraceAttributionMatchesCountersExactly) {
  // Shadow paging exercises the vTLB rows as well as the common exits.
  const RunResult r = RunCompile(TracedConfig(42, hw::TranslationMode::kShadow));
  ASSERT_FALSE(r.trace_rows.empty());
  for (const char* row : kTab2Rows) {
    const auto it = r.trace_rows.find(row);
    const std::uint64_t traced = it == r.trace_rows.end() ? 0 : it->second.count;
    EXPECT_EQ(traced, r.stats.Value(row)) << row;
  }
  // The run under shadow paging must actually produce vTLB traffic, or the
  // equality above would be vacuous.
  EXPECT_GT(r.stats.Value("vTLB Fill"), 0u);
}

}  // namespace
}  // namespace nova::bench
