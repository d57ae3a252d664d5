// nova-lint self-tests: every rule is run in-process over in-memory
// fixture snippets — a seeded violation it must detect, a clean variant
// it must stay silent on, and a suppressed variant it must count as
// suppressed — plus the comment/string blanking machinery, the layer
// ladder, and the report format.
#include "tools/nova_lint/lint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tools/nova_lint/rule.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {
namespace {

// Runs all rules over `files`, returning the result.
LintResult RunOn(const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<SourceFile> sources;
  for (const auto& [path, text] : files) {
    sources.emplace_back(path, text);
  }
  return RunLint(sources, AllRules());
}

int CountRule(const LintResult& r, const std::string& rule) {
  int n = 0;
  for (const Finding& f : r.findings) n += (f.rule == rule) ? 1 : 0;
  return n;
}

// --- raw-span ------------------------------------------------------------

TEST(RawSpanRule, FlagsManualBeginAndEnd) {
  const auto r = RunOn({{"src/hv/s.cc", R"cc(
void F() {
  tracer_->BeginAt(now, cat, name, tid);
  Work();
  tracer_->EndAt(now, cat, name, tid);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-span"), 2);
}

TEST(RawSpanRule, SilentOnScopedSpanAndDeclarations) {
  const auto r = RunOn({{"src/hv/s.cc", R"cc(
void BeginAt(int a, int b);
void F() {
  sim::ScopedSpan span(tracer_, cat, name, tid, clock);
  Work();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-span"), 0);
}

TEST(RawSpanRule, FileSuppressionCounts) {
  const auto r = RunOn({{"src/hv/s.cc", R"cc(
// nova-lint: allow-file(raw-span)
void F() {
  tracer_->BeginAt(now, cat, name, tid);
  tracer_->EndAt(now, cat, name, tid);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-span"), 0);
  EXPECT_EQ(r.suppressed, 2);
}

// --- layering ------------------------------------------------------------

TEST(LayeringRule, FlagsUpwardInclude) {
  const auto r = RunOn({{"src/hw/dev.h", R"cc(
#include "src/hv/kernel.h"
)cc"}});
  EXPECT_EQ(CountRule(r, "layering"), 1);
}

TEST(LayeringRule, AllowsDownwardSameRankAndConsumers) {
  const auto r = RunOn({{"src/hv/k.h", R"cc(
#include "src/sim/trace.h"
#include "src/hw/machine.h"
#include "src/hv/objects.h"
)cc"},
                        {"src/root/r.h", R"cc(
#include "src/vmm/vmm.h"
)cc"},
                        {"tests/hv/t.cc", R"cc(
#include "src/root/root_pm.h"
)cc"}});
  EXPECT_EQ(CountRule(r, "layering"), 0);
}

// --- unchecked-downcast --------------------------------------------------

TEST(UncheckedDowncastRule, FlagsImmediateDeref) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
void F(Cap c) {
  RefAs<Pd>(c, ObjType::kPd)->MarkDead();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-downcast"), 1);
}

TEST(UncheckedDowncastRule, FlagsUnguardedBoundDeref) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
void F(Cap c) {
  auto pd = RefAs<Pd>(c, ObjType::kPd);
  pd->MarkDead();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-downcast"), 1);
}

TEST(UncheckedDowncastRule, SilentWhenGuardedOrReturned) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
Ref F(Cap c) {
  auto pd = RefAs<Pd>(c, ObjType::kPd);
  if (pd == nullptr) {
    return nullptr;
  }
  pd->MarkDead();
  return RefAs<Pd>(c, ObjType::kPd);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-downcast"), 0);
}

// --- per-cpu-state -------------------------------------------------------

TEST(PerCpuStateRule, FlagsAccessWithoutCoreParameter) {
  const auto r = RunOn({{"src/hv/p.cc", R"cc(
void Hypervisor::Tick() {
  cpu_state(0).Enqueue(nullptr);
}
bool Hypervisor::AnyReady(long deadline) {
  return cpu_states_[0].HasReady();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 2);
}

TEST(PerCpuStateRule, ControlStatementHeaderIsNotAParameterList) {
  // "num_cpus" in a loop header names no core: the enclosing function's
  // own parameters decide, and here it has none.
  const auto r = RunOn({{"src/hv/p.cc", R"cc(
bool Hypervisor::AnyReady() {
  for (unsigned i = 0; i < machine_->num_cpus(); ++i) {
    if (cpu_state(i).HasReady()) {
      return true;
    }
  }
  return false;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 1);
}

TEST(PerCpuStateRule, SilentWithCpuIdOrScEcParameter) {
  const auto r = RunOn({{"src/hv/p.cc", R"cc(
void Hypervisor::Dispatch(unsigned cpu_id) {
  cpu_state(cpu_id).Enqueue(nullptr);
}
void Hypervisor::EnqueueSc(Sc* sc, bool at_head) {
  cpu_state(sc->cpu()).Enqueue(sc, at_head);
}
void Hypervisor::Park(Ec* vcpu) {
  cpu_states_[vcpu->cpu()].ParkHalted(nullptr);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 0);
}

TEST(PerCpuStateRule, SilentOnDeclarationsAndCtorInitLists) {
  // The class-scope declaration and the accessor signature are not
  // accesses; an init-list constructor body with a cpu param stays clean.
  const auto r = RunOn({{"src/hv/p.h", R"cc(
class Hypervisor {
 public:
  Hypervisor(unsigned boot_cpu) : boot_(boot_cpu) {
    cpu_state(boot_cpu).SetCurrent(nullptr);
  }
 private:
  std::vector<CpuState> cpu_states_;
  unsigned boot_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 0);
}

TEST(PerCpuStateRule, MachineWideScanSuppressible) {
  const auto r = RunOn({{"src/hv/p.cc", R"cc(
bool Hypervisor::AnyReady(long deadline) {
  // nova-lint: allow(per-cpu-state)
  return cpu_states_[0].HasReady();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 0);
  EXPECT_GE(r.suppressed, 1);
}

TEST(PerCpuStateRule, OutOfScopeOutsideHv) {
  const auto r = RunOn({{"src/hw/p.cc", R"cc(
void Tick() {
  cpu_state(0).Enqueue(nullptr);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "per-cpu-state"), 0);
}

// --- source views / suppressions -----------------------------------------

TEST(SourceFile, BlanksCommentsStringsAndPreprocessor) {
  SourceFile f("src/hv/x.cc", R"cc(
#include "src/root/above.h"
// Write(1);
const char* s = "Write(2);";
/* Write(3); */
)cc");
  EXPECT_EQ(f.code().find("Write"), std::string::npos);
  // The raw view still carries the include (the layering rule reads it).
  EXPECT_NE(f.RawLine(2).find("src/root"), std::string::npos);
}

TEST(SourceFile, StandaloneAllowCommentCoversNextLine) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  // nova-lint: allow(raw-span)
  t.BeginAt(1);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-span"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

TEST(SourceFile, SuppressionIsRuleSpecific) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  t.BeginAt(1);  // nova-lint: allow(layering)
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-span"), 1);
  EXPECT_EQ(r.suppressed, 0);
}

// --- layer ladder --------------------------------------------------------

TEST(Layers, RanksMatchTheLadder) {
  EXPECT_EQ(LayerRank("sim"), 0);
  EXPECT_EQ(LayerRank("hw"), 1);
  EXPECT_EQ(LayerRank("hv"), 2);
  EXPECT_EQ(LayerRank("root"), 3);
  EXPECT_EQ(LayerRank("vmm"), 3);
  EXPECT_EQ(LayerRank("tests"), -1);
  EXPECT_EQ(LayerOf("src/hv/kernel.h"), "hv");
  EXPECT_EQ(LayerOf("tests/hv/t.cc"), "");
}

// --- lexer gaps ----------------------------------------------------------

TEST(SourceFile, DigitSeparatorsDoNotOpenCharLiterals) {
  // Before the separator fix the first ' switched the blanker into
  // char-literal state and erased the rest of the line.
  SourceFile f("src/hv/x.cc", "F(4'000'000'000ull);\nWrite(1);\n");
  EXPECT_NE(f.code().find("4'000'000'000ull"), std::string::npos);
  EXPECT_NE(f.code().find("Write"), std::string::npos);
}

TEST(SourceFile, EncodingPrefixedCharLiteralsStillBlank) {
  SourceFile f("src/hv/x.cc", "char c = u8'W'; wchar_t w = L'X';\n");
  EXPECT_EQ(f.code().find('W'), std::string::npos);
  EXPECT_EQ(f.code().find('X'), std::string::npos);
}

TEST(Lexer, DigitSeparatedNumberIsOneToken) {
  SourceFile f("src/hv/x.cc", "const auto k = 4'000'000'000ull;\n");
  const Tokens toks = Lex(f);
  bool found = false;
  for (const Token& t : toks) {
    found |= t.kind == TokKind::kNumber && t.text == "4'000'000'000ull";
  }
  EXPECT_TRUE(found);
}

TEST(SourceFile, PrefixedRawStringsAreBlanked) {
  SourceFile f("src/hv/x.cc",
               "const char* s = uR\"x(Write(1))x\";\nint Keep();\n");
  EXPECT_EQ(f.code().find("Write"), std::string::npos);
  EXPECT_NE(f.code().find("Keep"), std::string::npos);
}

TEST(SourceFile, MultiLineRawStringBodyIsBlanked) {
  SourceFile f("src/hv/x.cc",
               "const char* s = R\"(\n  Write(1);\n)\";\nint Keep();\n");
  EXPECT_EQ(f.code().find("Write"), std::string::npos);
  EXPECT_NE(f.code().find("Keep"), std::string::npos);
}

TEST(SourceFile, MacroContinuationWithTrailingBlanksIsPreprocessor) {
  // The backslash is followed by trailing whitespace: still a
  // continuation, so the macro body must not leak into the code view.
  SourceFile f("src/hv/x.cc",
               "#define CHECK(x) \\ \t\n  Write(x)\nint Keep();\n");
  EXPECT_EQ(f.code().find("Write"), std::string::npos);
  EXPECT_NE(f.code().find("Keep"), std::string::npos);
}

// --- determinism ---------------------------------------------------------

TEST(DeterminismRule, FlagsEveryUnorderedContainerInSimLayers) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
class T {
 public:
  int Lookup(int k) { return table_.at(k); }
 private:
  std::unordered_map<int, int> table_;
  std::unordered_set<int> seen_;
};
using Index = std::unordered_multimap<int, int>;
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 3);
}

TEST(DeterminismRule, AllowsOrderedContainersAndHashIndex) {
  const auto r = RunOn({{"src/sim/d.cc", R"cc(
class T {
 public:
  void Walk() {
    for (const auto& kv : ordered_) { (void)kv; }
    index_.ForEachInKeyOrder([](int, int) {});
  }
 private:
  std::map<int, int> ordered_;
  sim::HashIndex<int, int> index_;
  unordered_map<int, int> not_std_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 0);
}

TEST(DeterminismRule, HashIndexHeaderMayWrapUnorderedMap) {
  const auto r = RunOn({
      {"src/sim/hash_index.h", "std::unordered_map<K, V> map_;\n"},
      {"src/sim/other.h", "std::unordered_map<K, V> map_;\n"},
  });
  ASSERT_EQ(CountRule(r, "determinism"), 1);
  EXPECT_EQ(r.findings[0].file, "src/sim/other.h");
}

TEST(DeterminismRule, FlagsPointerKeyedContainers) {
  const auto r = RunOn({{"src/hv/p.cc", R"cc(
class C {
 private:
  std::map<Obj*, int> index_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 1);
}

TEST(DeterminismRule, FlagsWallClockAndRandomness) {
  const auto r = RunOn({{"src/hw/c.cc", R"cc(
void F() {
  auto t = std::chrono::steady_clock::now();
  std::random_device rd;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 2);
}

TEST(DeterminismRule, FlagsPointerCastIntoPayloadSink) {
  const auto r = RunOn({{"src/hv/s.cc", R"cc(
void Save(W& w, Obj* p) {
  w.U64(reinterpret_cast<uintptr_t>(p));
}
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 1);
}

TEST(DeterminismRule, OutOfScopeOutsideSrcAndInRngWrapper) {
  const auto r = RunOn({
      {"tests/hv/c.cc",
       "void F() {\n  auto t = std::chrono::steady_clock::now();\n}\n"},
      {"src/sim/rng.cc", "int F() {\n  return rand();\n}\n"},
  });
  EXPECT_EQ(CountRule(r, "determinism"), 0);
}

TEST(DeterminismRule, SuppressibleWithJustification) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
class T {
 private:
  // nova-lint: allow(determinism) -- lookup only, never walked
  std::unordered_map<int, int> table_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

// --- report formats ------------------------------------------------------

TEST(Report, TextFormatIsFileLineRuleMessage) {
  const auto r = RunOn({{"src/hv/a.cc", "void F() {\n  t.BeginAt(1);\n}\n"}});
  const std::string text = FormatText(r);
  EXPECT_NE(text.find("src/hv/a.cc:2: [raw-span]"), std::string::npos);
  EXPECT_NE(text.find("1 finding(s)"), std::string::npos);
}

TEST(Report, FindingsAreSortedByFileThenLine) {
  const auto r = RunOn({{"src/hv/b.cc", "void F() {\n  t.BeginAt(1);\n}\n"},
                        {"src/hv/a.cc",
                         "void G() {\n  t.BeginAt(1);\n  t.BeginAt(2);\n}\n"}});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].file, "src/hv/a.cc");
  EXPECT_EQ(r.findings[0].line, 2);
  EXPECT_EQ(r.findings[1].file, "src/hv/a.cc");
  EXPECT_EQ(r.findings[1].line, 3);
  EXPECT_EQ(r.findings[2].file, "src/hv/b.cc");
}

}  // namespace
}  // namespace nova::lint
