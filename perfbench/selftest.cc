// The benchmark's own test: it builds the figures' own stacks (fidelity
// against fig5/tab2's printed numbers), its output checks catch a run cut
// short, and a traced run measures the same simulation as an untraced one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "workloads.h"

namespace nova::perfbench {
namespace {

// One episode only: the smallest budget still runs the minimum episodes.
Options Quick(WorkloadKind w) {
  Options o;
  o.workload = w;
  o.seconds = 1e-3;
  return o;
}

double Round(double v, int digits) {
  const double scale = std::pow(10.0, digits);
  return std::round(v * scale) / scale;
}

TEST(Fidelity, CompileEptReproducesTab2EptColumn) {
  Options o = Quick(WorkloadKind::kCompileEpt);
  o.compile_units = 40000;  // tab2's run length, seed 42.
  const Result r = RunBenchmark(o);
  ASSERT_TRUE(r.correct) << r.error;
  EXPECT_EQ(Round(r.sim.at("sim_s"), 3), 0.478);
  EXPECT_EQ(r.sim.at("vmm.exits"), 3530);
}

TEST(Fidelity, Disk4kReproducesTab2DiskColumn) {
  Options o = Quick(WorkloadKind::kDisk4k);
  o.disk_requests = 2000;  // tab2's run length.
  const Result r = RunBenchmark(o);
  ASSERT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.sim.at("hv.event.mmio"), 12004);
  EXPECT_EQ(r.sim.at("hv.event.pio"), 8000);
  EXPECT_EQ(r.sim.at("guest.units"), 2000);
  EXPECT_EQ(Round(r.sim.at("sim_s"), 3), 0.287);
}

TEST(Fidelity, CompileShadowReproducesFig5VtlbRung) {
  Options o = Quick(WorkloadKind::kCompileShadow);
  ASSERT_EQ(o.compile_units, 12000u);  // fig5's run length.
  const Result r = RunBenchmark(o);
  ASSERT_TRUE(r.correct) << r.error;
  EXPECT_EQ(Round(r.sim.at("sim_s"), 4), 0.1500);
}

TEST(Fidelity, CompileEpisodeMatchesTheFigureHarness) {
  // bench::RunCompile is what fig5 and tab2 call; the benchmark's episode
  // must simulate the identical run, not a look-alike.
  Options o = Quick(WorkloadKind::kCompileEpt);
  o.compile_units = 3000;
  o.seed = 7;
  const Result r = RunBenchmark(o);
  ASSERT_TRUE(r.correct) << r.error;
  bench::RunConfig c;
  c.workload.processes = 4;
  c.workload.ws_pages = 192;
  c.workload.total_units = 3000;
  c.workload.switch_every = 20;
  c.workload.disk_every = 150;
  c.workload.seed = 7;
  const bench::RunResult fig = bench::RunCompile(c);
  EXPECT_EQ(r.sim.at("sim_s"), fig.seconds);
  EXPECT_EQ(r.sim.at("vmm.exits"), static_cast<double>(fig.exits));
  EXPECT_EQ(r.sim.at("hw.insns"), static_cast<double>(fig.guest_insns));
}

TEST(Fidelity, SetupSplitNodeSimulatesLikeCompileScenario) {
  // setup.*_ms time a copy of bench::CompileScenario's construction; the
  // copy must build a node that runs the same compile episode.
  for (WorkloadKind w : {WorkloadKind::kCompileEpt, WorkloadKind::kCompileShadow}) {
    Options o = Quick(w);
    o.compile_units = 2000;
    const Result r = RunBenchmark(o);
    ASSERT_TRUE(r.correct) << r.error;
    EXPECT_EQ(SplitNodeCompileDigest(o), r.digest);
  }
}

TEST(Seeds, SecondSeedChangesCompileStatistics) {
  for (WorkloadKind w : {WorkloadKind::kCompileEpt, WorkloadKind::kCompileShadow}) {
    Options o = Quick(w);
    o.compile_units = 2000;
    const Result a = RunBenchmark(o);
    o.seed = 43;
    const Result b = RunBenchmark(o);
    ASSERT_TRUE(a.correct && b.correct) << a.error << b.error;
    EXPECT_NE(a.digest, b.digest);
    EXPECT_NE(a.sim.at("sim_s"), b.sim.at("sim_s"));
  }
}

TEST(Checks, RunCutShortByItsDeadlineReportsFailures) {
  for (WorkloadKind w : {WorkloadKind::kCompileEpt, WorkloadKind::kDisk4k,
                         WorkloadKind::kMigrate}) {
    Options o = Quick(w);
    o.compile_units = 2000;
    o.disk_requests = 200;
    o.sim_deadline = sim::Microseconds(500);
    const Result r = RunBenchmark(o);
    EXPECT_FALSE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, r.attempted);
    EXPECT_TRUE(r.metrics.empty());
  }
}

TEST(Trace, TracedRunMeasuresTheUntracedSimulationAndExportsTraces) {
  const std::string prefix = ::testing::TempDir() + "perfbench_selftest";
  for (WorkloadKind w : {WorkloadKind::kDisk4k, WorkloadKind::kMigrate}) {
    Options o = Quick(w);
    o.disk_requests = 200;
    const Result untraced = RunBenchmark(o);
    o.trace = true;
    o.chrome_trace = prefix;
    const Result traced = RunBenchmark(o);
    ASSERT_TRUE(untraced.correct) << untraced.error;
    ASSERT_TRUE(traced.correct) << traced.error;
    EXPECT_EQ(untraced.digest, traced.digest);
    EXPECT_GT(traced.metrics.at("hv.step.count").value, 0);
    EXPECT_GT(traced.metrics.at("sim.trace.records").value, 0);
    for (const char* suffix : {".host.json", ".sim.json"}) {
      std::FILE* f = std::fopen((prefix + suffix).c_str(), "r");
      ASSERT_NE(f, nullptr) << suffix;
      const std::string want = "{\"displayTimeUnit\"";
      std::string head(want.size(), '\0');
      EXPECT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
      std::fclose(f);
      EXPECT_EQ(head, want) << suffix;
    }
  }
}

}  // namespace
}  // namespace nova::perfbench
