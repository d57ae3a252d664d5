// Rule interface and registry.
//
// A rule inspects one file at a time against the shared ProjectModel and
// reports findings. The driver lexes and scope-walks each file exactly
// once and hands rules the shared views through FileCtx. Suppression
// filtering happens in the driver, so rules report unconditionally.
#ifndef TOOLS_NOVA_LINT_RULE_H_
#define TOOLS_NOVA_LINT_RULE_H_

#include <memory>
#include <string>
#include <vector>

#include "tools/nova_lint/diag.h"
#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/model.h"
#include "tools/nova_lint/scope.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {

// Per-file views shared by every rule: the raw/blanked source, its token
// stream, and the function/class scopes the walker recovered from it.
struct FileCtx {
  const SourceFile& file;
  const Tokens& toks;
  const FileScopes& scopes;
};

class Rule {
 public:
  virtual ~Rule() = default;
  // Stable kebab-case id used in diagnostics and allow() comments.
  virtual const char* name() const = 0;
  // One-line description for --list-rules.
  virtual const char* summary() const = 0;
  virtual void Check(const FileCtx& ctx, const ProjectModel& model,
                     Findings* out) const = 0;
};

// Factories for every shipped rule (one translation unit each).
std::unique_ptr<Rule> MakeQuotaSymmetryRule();
std::unique_ptr<Rule> MakeRawCounterRule();
std::unique_ptr<Rule> MakeRawSpanRule();
std::unique_ptr<Rule> MakeLayeringRule();
std::unique_ptr<Rule> MakeUncheckedDowncastRule();
std::unique_ptr<Rule> MakePerCpuStateRule();
std::unique_ptr<Rule> MakeDeterminismRule();
std::unique_ptr<Rule> MakeLockDisciplineRule();

// All rules, in diagnostic order.
std::vector<std::unique_ptr<Rule>> AllRules();

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_RULE_H_
