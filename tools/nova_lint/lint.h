// The nova-lint driver: file collection, rule execution, suppression
// filtering and output formatting. Kept separate from main() so the test
// suite can run the whole pipeline in-process on fixture snippets.
//
// Execution is parallel: a thread pool lexes each file and runs every rule
// over it. Findings land in per-file slots and are merged with a
// deterministic (file, line, rule) sort, so the report is byte-identical at
// any thread count.
#ifndef TOOLS_NOVA_LINT_LINT_H_
#define TOOLS_NOVA_LINT_LINT_H_

#include <set>
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
  int baselined = 0;     // findings dropped by the --baseline ratchet
  long wall_ms = 0;      // wall time of the lint run
};

// A scan root with an optional per-root rule restriction: findings from
// rules in `exclude` are not reported for files under `path`. Used to
// lint tests/tools/bench with the determinism rule off (their job is to
// poke the simulator from outside, wall clocks and all).
struct RootSpec {
  std::string path;
  std::set<std::string> exclude;
};

// Recursively collects .h/.hpp/.cc/.cpp files under each path (a path
// that is itself a file is taken as-is), sorted for determinism.
// Directories named `lint_fixtures` are skipped during recursion — they
// hold intentionally-violating rule fixtures and are only linted when
// passed explicitly.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths);

// Runs `rules` over `files` with `jobs` worker threads (<=0: one per
// hardware thread). `roots` maps each file to its longest-prefix root;
// files under no root get every rule.
LintResult RunLint(const std::vector<SourceFile>& files,
                   const std::vector<std::unique_ptr<Rule>>& rules,
                   int jobs = 0, const std::vector<RootSpec>& roots = {});

// Ratchet mode: drops findings whose "<rule> <file>" pair appears in
// `baseline_lines` (one pair per line, '#' comments ignored) and counts
// them in result->baselined. Returns the number dropped. Lets a new rule
// land with known-debt files without blocking CI while still failing on
// fresh findings.
int ApplyBaseline(LintResult* result,
                  const std::vector<std::string>& baseline_lines);

// Human-readable report: one `file:line: [rule] message` per finding
// plus a trailing summary line.
std::string FormatText(const LintResult& result);

// Machine-readable report:
//   {"findings":[{"rule":…,"file":…,"line":N,"message":…}],
//    "count":N,"suppressed":N,"baselined":N,"files_scanned":N,
//    "wall_ms":N}
std::string FormatJson(const LintResult& result);

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_LINT_H_
