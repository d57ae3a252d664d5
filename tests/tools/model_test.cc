// Symbol-index tests for the nova-lint project model: the scope walker's
// function/member extraction, cross-TU call resolution, guarded-by
// annotation parsing and ChargeLock site indexing.
#include "tools/nova_lint/model.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/nova_lint/scope.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {
namespace {

ProjectModel Build(const std::vector<std::pair<std::string, std::string>>&
                       files) {
  std::vector<SourceFile> sources;
  for (const auto& [path, text] : files) {
    sources.emplace_back(path, text);
  }
  return BuildModel(sources);
}

const MemberDecl* FindMember(const ProjectModel& m, const std::string& cls,
                             const std::string& name) {
  for (const MemberDecl& d : m.members) {
    if (d.cls == cls && d.name == name) return &d;
  }
  return nullptr;
}

// --- scope walker --------------------------------------------------------

TEST(FileScopes, FindsFunctionsMethodsAndClasses) {
  SourceFile f("src/hv/s.cc", R"cc(
int Free(int x) { return x; }
class K {
 public:
  void Inline() { x_ = 1; }
  void OutOfLine();
 private:
  int x_ = 0;
};
void K::OutOfLine() { x_ = 2; }
)cc");
  const Tokens toks = Lex(f);
  const FileScopes scopes = BuildFileScopes(toks);
  ASSERT_EQ(scopes.classes.size(), 1u);
  EXPECT_EQ(scopes.classes[0].name, "K");
  ASSERT_EQ(scopes.functions.size(), 3u);
  bool found_free = false, found_inline = false, found_ool = false;
  for (const FuncScope& fs : scopes.functions) {
    if (fs.name == "Free") {
      found_free = true;
      EXPECT_EQ(fs.qualifier, "");
    }
    if (fs.name == "Inline") {
      found_inline = true;
      EXPECT_EQ(fs.qualifier, "K");  // innermost-class fill-in
    }
    if (fs.name == "OutOfLine") {
      found_ool = true;
      EXPECT_EQ(fs.qualifier, "K");  // Cls:: qualifier
    }
  }
  EXPECT_TRUE(found_free && found_inline && found_ool);
}

TEST(FileScopes, InnermostFunctionMapsTokensToTheirBody) {
  SourceFile f("src/hv/s.cc", "void A() { int a; }\nvoid B() { int b; }\n");
  const Tokens toks = Lex(f);
  const FileScopes scopes = BuildFileScopes(toks);
  ASSERT_EQ(scopes.functions.size(), 2u);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const int fn = InnermostFunction(scopes, static_cast<int>(i));
    if (toks[i].text == "a") {
      ASSERT_GE(fn, 0);
      EXPECT_EQ(scopes.functions[static_cast<std::size_t>(fn)].name, "A");
    }
    if (toks[i].text == "b") {
      ASSERT_GE(fn, 0);
      EXPECT_EQ(scopes.functions[static_cast<std::size_t>(fn)].name, "B");
    }
  }
}

// --- function index and cross-TU call resolution -------------------------

TEST(ProjectModelIndex, ResolvesCallsAcrossTranslationUnits) {
  const ProjectModel m = Build({
      {"src/hv/callee.cc", "void Helper() { }\n"},
      {"src/hv/caller.cc", "void Driver() {\n  Helper();\n}\n"},
  });
  const FuncDef* driver = nullptr;
  for (const FuncDef& d : m.functions) {
    if (d.name == "Driver") driver = &d;
  }
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->calls.count("Helper"), 1u);
  // The call site names the callee; FindFunctions locates its TU.
  const auto defs = m.FindFunctions("Helper");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0]->file, "src/hv/callee.cc");
}

TEST(ProjectModelIndex, RecordsChargeLockSitesPerFunction) {
  const ProjectModel m = Build({{"src/hv/k.cc", R"cc(
void Hv::Mutate(int cpu) {
  ChargeLock(mdb_lock_, cpu);
  ChargeLock(sched_lock_, cpu);
}
)cc"}});
  const auto defs = m.FindFunctions("Mutate");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0]->qualifier, "Hv");
  EXPECT_EQ(defs[0]->locks.count("mdb_lock_"), 1u);
  EXPECT_EQ(defs[0]->locks.count("sched_lock_"), 1u);
  ASSERT_EQ(m.lock_sites.size(), 2u);
  EXPECT_EQ(m.lock_sites[0].func, "Mutate");
}

// --- guarded-by parsing --------------------------------------------------

TEST(ProjectModelIndex, ParsesGuardedByFromDeclAndCommentLine) {
  const ProjectModel m = Build({{"src/hv/k.h", R"cc(
class Hv {
 private:
  int epoch_ = 0;  // guarded-by(mdb_lock_)
  // guarded-by(sched_lock_)
  int quantum_ = 0;
  int free_ = 0;
};
)cc"}});
  const MemberDecl* epoch = FindMember(m, "Hv", "epoch_");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->guarded_by, "mdb_lock_");
  const MemberDecl* quantum = FindMember(m, "Hv", "quantum_");
  ASSERT_NE(quantum, nullptr);
  EXPECT_EQ(quantum->guarded_by, "sched_lock_");
  const MemberDecl* free_member = FindMember(m, "Hv", "free_");
  ASSERT_NE(free_member, nullptr);
  EXPECT_EQ(free_member->guarded_by, "");
  ASSERT_EQ(m.GuardedMembers().size(), 2u);
}

TEST(ProjectModelIndex, MemberTypesKeepContainerShape) {
  const ProjectModel m = Build({{"src/hv/k.h", R"cc(
class Hv {
 private:
  std::unordered_map<int, int> table_;
  std::vector<int> list_;
};
)cc"}});
  const MemberDecl* table = FindMember(m, "Hv", "table_");
  ASSERT_NE(table, nullptr);
  EXPECT_NE(table->type.find("unordered_map"), std::string::npos);
  const MemberDecl* list = FindMember(m, "Hv", "list_");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->type.find("unordered_"), std::string::npos);
}

}  // namespace
}  // namespace nova::lint
