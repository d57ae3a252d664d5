// nova-lint self-tests: every rule is run in-process over in-memory
// fixture snippets — a seeded violation it must detect, a clean variant
// it must stay silent on, and a suppressed variant it must count as
// suppressed — plus the comment/string blanking machinery, the project
// model, and the JSON report shape.
#include "tools/nova_lint/lint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tools/nova_lint/model.h"
#include "tools/nova_lint/rule.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {
namespace {

// Declarations every fixture set shares: makes Status/Outcome APIs
// must-check and defines the enums the switch rule needs to know.
constexpr const char* kHeaderPath = "src/sim/fixture.h";
constexpr const char* kHeader = R"cc(
enum class Status : int { kSuccess, kNoMem, kDenied };
enum class Outcome : int { kFilled, kGuestFault };
enum class Kind : int { kA, kB };
Status Write(int x);
Outcome Resolve(int x);
[[nodiscard]] bool TryCharge(int frames);
)cc";

// Runs all rules over the header plus `files`, returning the result.
LintResult RunOn(const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<SourceFile> sources;
  sources.emplace_back(kHeaderPath, kHeader);
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

// --- unchecked-status ----------------------------------------------------

TEST(UncheckedStatusRule, FlagsDiscardedStatusCall) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  Write(1);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 1);
}

TEST(UncheckedStatusRule, FlagsDiscardedMemberChainCall) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F(M& m) {
  m.mem().Write(1);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 1);
}

TEST(UncheckedStatusRule, SilentWhenConsumedOrVoided) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
Status G();
Status F(M& m) {
  Status s = Write(1);
  if (Write(2) == Status::kSuccess) { }
  (void)m.mem().Write(3);
  (void)Write(4);
  return x ? Write(5) : G();
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 0);
}

TEST(UncheckedStatusRule, FlagsUnbracedControlledStatement) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F(bool c) {
  if (c) Write(1);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 1);
}

TEST(UncheckedStatusRule, HonorsNodiscardDeclarations) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  TryCharge(4);
}
)cc"}});
  // One unchecked-status finding; TryCharge alone must not trip the
  // quota-symmetry pair check (that needs a charge/credit API pair).
  EXPECT_EQ(CountRule(r, "unchecked-status"), 1);
}

TEST(UncheckedStatusRule, LineSuppressionCounts) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  Write(1);  // nova-lint: allow(unchecked-status)
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

// --- quota-symmetry ------------------------------------------------------

TEST(QuotaSymmetryRule, FlagsChargeWithoutCredit) {
  const auto r = RunOn({{"src/hv/q.cc", R"cc(
void Grow(P* pd) {
  (void)pool->AllocFrameFor(pd);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "quota-symmetry"), 1);
}

TEST(QuotaSymmetryRule, SilentWhenPaired) {
  const auto r = RunOn({{"src/hv/q.cc", R"cc(
void Grow(P* pd) {
  (void)pool->AllocFrameFor(pd);
}
void Shrink(P* pd, unsigned f) {
  pool->FreeFrameFor(pd, f);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "quota-symmetry"), 0);
}

TEST(QuotaSymmetryRule, IgnoresDeclarationsAndTests) {
  // A declaration is not a call; test files are out of scope entirely.
  const auto r = RunOn({{"src/hv/q.h", R"cc(
struct Pool {
  virtual unsigned AllocFrameFor(P* pd) = 0;
};
)cc"},
                        {"tests/hv/q_test.cc", R"cc(
void T() { (void)pool->AllocFrameFor(pd); }
)cc"}});
  EXPECT_EQ(CountRule(r, "quota-symmetry"), 0);
}

// --- raw-counter ---------------------------------------------------------

TEST(RawCounterRule, FlagsBareBumpInHv) {
  const auto r = RunOn({{"src/hv/c.cc", R"cc(
void F() {
  x = 1;
  y = 2;
  ctr_.hlt.Add();
  z = 3;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-counter"), 1);
}

TEST(RawCounterRule, FlagsStringKeyedLookupEvenWithCoEmission) {
  const auto r = RunOn({{"src/hv/c.cc", R"cc(
void F() {
  stats_.counter("ipc-calls").Add();
  tracer_->InstantAt(now, cat, name, tid);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-counter"), 1);
}

TEST(RawCounterRule, SilentWithAdjacentCoEmission) {
  const auto r = RunOn({{"src/hv/c.cc", R"cc(
void F() {
  flushes_.Add();
  Mark(trc_.flush);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-counter"), 0);
}

TEST(RawCounterRule, OutOfScopeOutsideHv) {
  const auto r = RunOn({{"src/hw/c.cc", R"cc(
void F() {
  x = 1;
  y = 2;
  retries_.Add();
  z = 3;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "raw-counter"), 0);
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

// --- enum-switch ---------------------------------------------------------

TEST(EnumSwitchRule, FlagsPartialSwitch) {
  const auto r = RunOn({{"src/hv/e.cc", R"cc(
int F(Status s) {
  switch (s) {
    case Status::kSuccess:
      return 0;
    default:
      return 1;
  }
}
)cc"}});
  EXPECT_EQ(CountRule(r, "enum-switch"), 1);
}

TEST(EnumSwitchRule, SilentWhenExhaustive) {
  const auto r = RunOn({{"src/hv/e.cc", R"cc(
int F(Status s) {
  switch (s) {
    case Status::kSuccess:
      return 0;
    case Status::kNoMem:
    case Status::kDenied:
      return 1;
  }
  return 2;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "enum-switch"), 0);
}

TEST(EnumSwitchRule, ResolvesCollidingShortNamesByCaseLabels) {
  // `Kind` here is NOT the fixture-header Kind: its labels fit no known
  // definition fully... but kA does. The rule must only attribute the
  // switch to the header's Kind when every observed label fits it, and
  // then report its real gaps.
  const auto r = RunOn({{"src/hv/e.cc", R"cc(
int F(Kind k) {
  switch (k) {
    case Kind::kA:
      return 0;
    case Kind::kB:
      return 1;
  }
  return 2;
}
)cc"}});
  EXPECT_EQ(CountRule(r, "enum-switch"), 0);
}

TEST(EnumSwitchRule, SuppressibleOnTheSwitchLine) {
  const auto r = RunOn({{"src/hv/e.cc", R"cc(
int F(Status s) {
  switch (s) {  // nova-lint: allow(enum-switch)
    case Status::kSuccess:
      return 0;
    default:
      return 1;
  }
}
)cc"}});
  EXPECT_EQ(CountRule(r, "enum-switch"), 0);
  EXPECT_EQ(r.suppressed, 1);
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
  // nova-lint: allow(unchecked-status)
  Write(1);
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

TEST(SourceFile, SuppressionIsRuleSpecific) {
  const auto r = RunOn({{"src/hv/a.cc", R"cc(
void F() {
  Write(1);  // nova-lint: allow(raw-span)
}
)cc"}});
  EXPECT_EQ(CountRule(r, "unchecked-status"), 1);
  EXPECT_EQ(r.suppressed, 0);
}

// --- model ---------------------------------------------------------------

TEST(ProjectModel, LayerRanksMatchTheLadder) {
  EXPECT_EQ(ProjectModel::LayerRank("sim"), 0);
  EXPECT_EQ(ProjectModel::LayerRank("hw"), 1);
  EXPECT_EQ(ProjectModel::LayerRank("hv"), 2);
  EXPECT_EQ(ProjectModel::LayerRank("root"), 3);
  EXPECT_EQ(ProjectModel::LayerRank("vmm"), 3);
  EXPECT_EQ(ProjectModel::LayerRank("tests"), -1);
  EXPECT_EQ(ProjectModel::LayerOf("src/hv/kernel.h"), "hv");
  EXPECT_EQ(ProjectModel::LayerOf("tests/hv/t.cc"), "");
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

TEST(DeterminismRule, FlagsUnorderedIterationInSimLayers) {
  const auto r = RunOn({{"src/hv/d.cc", R"cc(
class T {
 public:
  void Walk() {
    for (const auto& kv : table_) { (void)kv; }
  }
 private:
  std::unordered_map<int, int> table_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 1);
}

TEST(DeterminismRule, FlagsExplicitIteratorWalk) {
  const auto r = RunOn({{"src/hw/d.cc", R"cc(
class T {
 public:
  int First() { return table_.begin()->second; }
 private:
  std::unordered_map<int, int> table_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 1);
}

TEST(DeterminismRule, ResolvesMemberTypeByEnclosingClass) {
  // Two classes declare `entries_`: unordered in A, a vector in B. The
  // walk in B::V must resolve against B's declaration, not A's.
  const auto r = RunOn({
      {"src/sim/a.h", R"cc(
class A {
 public:
  void W();
 private:
  std::unordered_map<int, int> entries_;
};
)cc"},
      {"src/sim/b.cc", R"cc(
class B {
 public:
  void V() {
    for (const int e : entries_) { (void)e; }
  }
 private:
  std::vector<int> entries_;
};
)cc"},
  });
  EXPECT_EQ(CountRule(r, "determinism"), 0);
}

TEST(DeterminismRule, ResolvesCrossTuMethodDefinitions) {
  // A::W is defined out-of-line in a different TU than A's declaration;
  // the Cls:: qualifier must pick up A's unordered member.
  const auto r = RunOn({
      {"src/sim/a.h", R"cc(
class A {
 public:
  void W();
 private:
  std::unordered_map<int, int> entries_;
};
)cc"},
      {"src/sim/a.cc", R"cc(
void A::W() {
  for (const auto& kv : entries_) { (void)kv; }
}
)cc"},
  });
  EXPECT_EQ(CountRule(r, "determinism"), 1);
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
 public:
  int Count() {
    int n = 0;
    // nova-lint: allow(determinism) -- pure count, order-independent
    for (const auto& kv : table_) { n += kv.second; }
    return n;
  }
 private:
  std::unordered_map<int, int> table_;
};
)cc"}});
  EXPECT_EQ(CountRule(r, "determinism"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

// --- lock-discipline -----------------------------------------------------

constexpr const char* kLockHeaderPath = "src/hv/lk.h";
constexpr const char* kLockHeader = R"cc(
struct KernelLock { int last_cpu; };
class Hv {
 public:
  void Locked(int cpu);
  void Unlocked();
 private:
  void ChargeLock(KernelLock& lock, int cpu);
  // guarded-by(mdb_lock_)
  int mdb_epoch_ = 0;
  KernelLock mdb_lock_;
};
)cc";

TEST(LockDisciplineRule, FlagsTouchWithoutCharge) {
  const auto r = RunOn({
      {kLockHeaderPath, kLockHeader},
      {"src/hv/lk.cc", R"cc(
void Hv::Locked(int cpu) {
  ChargeLock(mdb_lock_, cpu);
  mdb_epoch_ = 1;
}
void Hv::Unlocked() {
  mdb_epoch_ = 2;
}
)cc"},
  });
  ASSERT_EQ(CountRule(r, "lock-discipline"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule != "lock-discipline") continue;
    EXPECT_NE(f.message.find("Hv::Unlocked"), std::string::npos);
    EXPECT_NE(f.message.find("mdb_lock_"), std::string::npos);
  }
}

TEST(LockDisciplineRule, PerCpuOwnerCodeIsExempt) {
  const auto r = RunOn({
      {kLockHeaderPath, kLockHeader},
      {"src/hv/cs.cc", R"cc(
class CpuState {
 public:
  void Touch();
};
void CpuState::Touch() {
  mdb_epoch_ = 3;
}
)cc"},
  });
  EXPECT_EQ(CountRule(r, "lock-discipline"), 0);
}

TEST(LockDisciplineRule, SuppressibleWithJustification) {
  const auto r = RunOn({
      {kLockHeaderPath, kLockHeader},
      {"src/hv/lk.cc", R"cc(
void Hv::Unlocked() {
  // nova-lint: allow(lock-discipline) -- single-core boot path
  mdb_epoch_ = 2;
}
)cc"},
  });
  EXPECT_EQ(CountRule(r, "lock-discipline"), 0);
  EXPECT_EQ(r.suppressed, 1);
}

// --- event-rebind --------------------------------------------------------

TEST(EventRebindRule, FlagsEnqueueWithoutRebinder) {
  const auto r = RunOn({{"src/hw/t.cc", R"cc(
void Arm(sim::EventQueue& q) {
  q.ScheduleAtTagged(5, sim::EventTag{"hw.timer", 0}, Fire);
}
)cc"}});
  ASSERT_EQ(CountRule(r, "event-rebind"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule == "event-rebind") {
      EXPECT_NE(f.message.find("hw.timer"), std::string::npos);
    }
  }
}

TEST(EventRebindRule, PairsEnqueueWithRebinderAcrossTus) {
  const auto r = RunOn({
      {"src/hw/t.cc", R"cc(
void Arm(sim::EventQueue& q) {
  q.ScheduleAtTagged(5, sim::EventTag{"hw.timer", 0}, Fire);
}
)cc"},
      {"src/hw/t_restore.cc", R"cc(
void Attach(sim::EventQueue& q) {
  q.RegisterRebinder("hw.timer", Rebind);
}
)cc"},
  });
  EXPECT_EQ(CountRule(r, "event-rebind"), 0);
}

TEST(EventRebindRule, TracesLocalTagVariables) {
  const auto r = RunOn({{"src/hw/n.cc", R"cc(
void Arm(sim::EventQueue& q) {
  const sim::EventTag tag{"hw.nic", 1};
  q.ScheduleAfterTagged(5, tag, Fire);
}
)cc"}});
  ASSERT_EQ(CountRule(r, "event-rebind"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule == "event-rebind") {
      EXPECT_NE(f.message.find("hw.nic"), std::string::npos);
    }
  }
}

TEST(EventRebindRule, MatchesSymbolicOwnerKeys) {
  const auto r = RunOn({
      {"src/services/d.cc", R"cc(
void Arm(sim::EventQueue& q) {
  q.ScheduleAfterTagged(5, sim::EventTag{kDiskOwner, 1}, Fire);
}
)cc"},
      {"src/services/d_restore.cc", R"cc(
void Attach(sim::EventQueue& q) {
  q.RegisterRebinder(kDiskOwner, Rebind);
}
)cc"},
  });
  EXPECT_EQ(CountRule(r, "event-rebind"), 0);
}

// --- driver: parallelism, roots, baseline --------------------------------

TEST(Driver, ParallelRunMatchesSerialByteForByte) {
  std::vector<SourceFile> files;
  files.emplace_back(kHeaderPath, kHeader);
  for (int i = 0; i < 24; ++i) {
    files.emplace_back("src/hv/f" + std::to_string(i) + ".cc",
                       "void F" + std::to_string(i) + "() {\n"
                       "  Write(1);\n  Write(2);\n}\n");
  }
  const LintResult serial = RunLint(files, AllRules(), 1);
  const LintResult parallel = RunLint(files, AllRules(), 4);
  EXPECT_EQ(FormatText(serial), FormatText(parallel));
  EXPECT_EQ(serial.findings.size(), 48u);
}

TEST(Driver, RootsExcludeRulesByLongestPrefix) {
  std::vector<SourceFile> files;
  files.emplace_back(kHeaderPath, kHeader);
  files.emplace_back("src/hv/a.cc", "void F() {\n  Write(1);\n}\n");
  std::vector<RootSpec> roots;
  roots.push_back({"src", {}});
  roots.push_back({"src/hv", {"unchecked-status"}});
  const LintResult r = RunLint(files, AllRules(), 1, roots);
  EXPECT_EQ(CountRule(r, "unchecked-status"), 0);
  const LintResult all = RunLint(files, AllRules(), 1);
  EXPECT_EQ(CountRule(all, "unchecked-status"), 1);
}

TEST(Driver, BaselineRatchetDropsKnownPairsOnly) {
  LintResult r = RunOn({{"src/hv/a.cc", "void F() {\n  Write(1);\n}\n"},
                        {"src/hv/b.cc", "void G() {\n  Write(1);\n}\n"}});
  ASSERT_EQ(r.findings.size(), 2u);
  const int dropped = ApplyBaseline(
      &r, {"# known debt", "unchecked-status src/hv/a.cc", "", "bogus-line"});
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(r.baselined, 1);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "src/hv/b.cc");
}

// --- report formats ------------------------------------------------------

TEST(Report, JsonCarriesSchemaFieldsAndEscapes) {
  const auto r = RunOn({{"src/hv/a.cc", "void F() {\n  Write(1);\n}\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string json = FormatJson(r);
  EXPECT_NE(json.find("\"findings\":["), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"unchecked-status\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/hv/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":0"), std::string::npos);
  EXPECT_NE(json.find("\"baselined\":0"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":2"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
}

TEST(Report, TextFormatIsFileLineRuleMessage) {
  const auto r = RunOn({{"src/hv/a.cc", "void F() {\n  Write(1);\n}\n"}});
  const std::string text = FormatText(r);
  EXPECT_NE(text.find("src/hv/a.cc:2: [unchecked-status]"),
            std::string::npos);
  EXPECT_NE(text.find("1 finding(s)"), std::string::npos);
}

TEST(Report, FindingsAreSortedByFileThenLine) {
  const auto r = RunOn({{"src/hv/b.cc", "void F() {\n  Write(1);\n}\n"},
                        {"src/hv/a.cc",
                         "void G() {\n  Write(1);\n  Write(2);\n}\n"}});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].file, "src/hv/a.cc");
  EXPECT_EQ(r.findings[0].line, 2);
  EXPECT_EQ(r.findings[1].file, "src/hv/a.cc");
  EXPECT_EQ(r.findings[1].line, 3);
  EXPECT_EQ(r.findings[2].file, "src/hv/b.cc");
}

}  // namespace
}  // namespace nova::lint
