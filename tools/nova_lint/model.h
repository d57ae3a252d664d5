// ProjectModel: facts nova-lint mines from the source tree before any
// rule runs: layer ranks and a whole-project symbol index built by the
// scope walker, holding function/method definitions with their call and
// lock-charge sites and class members with declaration types and
// `// guarded-by(<lock>)` annotations. Facts the compiler already checks
// (discarded [[nodiscard]] results, exhaustive enum switches) and the
// event queue guarantees (every scheduled event has a closure factory)
// are not modelled.
#ifndef TOOLS_NOVA_LINT_MODEL_H_
#define TOOLS_NOVA_LINT_MODEL_H_

#include <set>
#include <string>
#include <vector>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/scope.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {

// One data member declared in a class/struct body.
struct MemberDecl {
  std::string cls;         // declaring class
  std::string name;
  std::string type;        // declaration type, tokens joined with spaces
  std::string guarded_by;  // lock from `// guarded-by(<lock>)`, or ""
  std::string file;
  int line = 0;
};

// One function/method *definition* plus the per-body facts rules need.
struct FuncDef {
  std::string name;
  std::string qualifier;  // enclosing class, or "" for free functions
  std::string file;
  int line = 0;
  std::set<std::string> calls;  // unqualified callee names in the body
  std::set<std::string> locks;  // KernelLocks passed to ChargeLock here
};

// One `ChargeLock(<lock>, …)` call site.
struct LockSite {
  std::string lock;
  std::string func;  // enclosing function name ("" at namespace scope)
  std::string file;
  int line = 0;
};

struct ProjectModel {
  // --- Whole-project symbol index (scope-walker derived) ---
  std::vector<MemberDecl> members;
  std::vector<FuncDef> functions;
  std::vector<LockSite> lock_sites;

  // The definition recorded at (file, line of the function name), or
  // nullptr. Lines come from the same scope walk rules see via FileCtx,
  // so the lookup is exact.
  const FuncDef* FunctionAt(const std::string& file, int line) const;

  // All definitions of `name` (any qualifier), in scan order. Used for
  // cross-TU call resolution: a call site names the callee, this finds
  // the TU(s) defining it.
  std::vector<const FuncDef*> FindFunctions(const std::string& name) const;

  // Members carrying a guarded-by annotation.
  std::vector<const MemberDecl*> GuardedMembers() const;

  // Architecture ranks for the layering rule. A file may include headers
  // of its own rank or below, never above. Directories absent from the
  // map (tests/, bench/, examples/, tools/) are unrestricted consumers.
  //   sim(0) -> hw(1) -> hv(2) -> {services, root, vmm, guest, baseline}(3)
  static int LayerRank(const std::string& layer);

  // Layer name ("sim", "hw", ...) of a path under src/, or "" when the
  // path is not in src/.
  static std::string LayerOf(const std::string& path);
};

// Builds the model from pre-lexed tokens and scopes (one entry per file,
// parallel to `files`). This is the driver's path: lex once, share the
// tokens between the model, the scope walk, and every rule.
ProjectModel BuildModel(const std::vector<SourceFile>& files,
                        const std::vector<Tokens>& toks,
                        const std::vector<FileScopes>& scopes);

// Convenience overload that lexes and scope-walks internally (tests).
ProjectModel BuildModel(const std::vector<SourceFile>& files);

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_MODEL_H_
