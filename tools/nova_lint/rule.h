// Rule interface and registry.
//
// A rule inspects one file at a time and reports findings. The driver lexes
// each file exactly once and hands rules the shared views through FileCtx.
// Suppression filtering happens in the driver, so rules report
// unconditionally.
#ifndef TOOLS_NOVA_LINT_RULE_H_
#define TOOLS_NOVA_LINT_RULE_H_

#include <memory>
#include <string>
#include <vector>

#include "tools/nova_lint/diag.h"
#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {

// Per-file views shared by every rule: the raw/blanked source and its
// token stream.
struct FileCtx {
  const SourceFile& file;
  const Tokens& toks;
};

class Rule {
 public:
  virtual ~Rule() = default;
  // Stable kebab-case id used in diagnostics and allow() comments.
  virtual const char* name() const = 0;
  virtual void Check(const FileCtx& ctx, Findings* out) const = 0;
};

// Factories for every shipped rule (one translation unit each).
std::unique_ptr<Rule> MakeRawSpanRule();
std::unique_ptr<Rule> MakeLayeringRule();
std::unique_ptr<Rule> MakeUncheckedDowncastRule();
std::unique_ptr<Rule> MakePerCpuStateRule();
std::unique_ptr<Rule> MakeDeterminismRule();

// All rules, in diagnostic order.
std::vector<std::unique_ptr<Rule>> AllRules();

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_RULE_H_
