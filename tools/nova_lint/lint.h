// The nova-lint driver: file collection, rule execution, suppression
// filtering and output formatting. Kept separate from main() so the test
// suite can run the whole pipeline in-process on fixture snippets.
// Findings are reported in (file, line, rule) order.
#ifndef TOOLS_NOVA_LINT_LINT_H_
#define TOOLS_NOVA_LINT_LINT_H_

#include <string>
#include <vector>

#include "tools/nova_lint/diag.h"
#include "tools/nova_lint/rule.h"
#include "tools/nova_lint/source.h"

namespace nova::lint {

struct LintResult {
  Findings findings;     // sorted by (file, line, rule); suppressions applied
  int files_scanned = 0;
  int suppressed = 0;    // findings dropped by allow()/allow-file()
};

// Recursively collects .h/.hpp/.cc/.cpp files under each path (a path
// that is itself a file is taken as-is), sorted for determinism.
// Directories named `lint_fixtures` are skipped during recursion — they
// hold intentionally-violating rule fixtures and are only linted when
// passed explicitly.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths);

// Lexes each of `files` once and runs every rule over its tokens.
LintResult RunLint(const std::vector<SourceFile>& files,
                   const std::vector<std::unique_ptr<Rule>>& rules);

// Human-readable report: one `file:line: [rule] message` per finding
// plus a trailing summary line.
std::string FormatText(const LintResult& result);

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_LINT_H_
