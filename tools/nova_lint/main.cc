// nova-lint — project-invariant static analysis for the NOVA repro.
//
//   nova_lint [--rule=<name>]... <path>...
//
// Scans the given files/directories, runs every registered rule (or the
// --rule subset) and prints findings. Exit code: 0 clean, 1 findings,
// 2 usage or I/O error. Suppress a finding in source with
//   // nova-lint: allow(<rule>)           (this or the next line)
//   // nova-lint: allow-file(<rule>)      (whole file)
#include <cstdio>
#include <string>
#include <vector>

#include "tools/nova_lint/lint.h"
#include "tools/nova_lint/rule.h"

int main(int argc, char** argv) {
  using namespace nova::lint;

  std::vector<std::string> rule_filter;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rule=", 0) == 0) {
      rule_filter.push_back(arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: nova_lint [--rule=<name>]... <path>...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "nova_lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  std::vector<std::unique_ptr<Rule>> rules = AllRules();
  if (!rule_filter.empty()) {
    std::vector<std::unique_ptr<Rule>> kept;
    for (auto& r : rules) {
      for (const std::string& want : rule_filter) {
        if (want == r->name()) {
          kept.push_back(std::move(r));
          break;
        }
      }
    }
    if (kept.empty()) {
      std::fprintf(stderr, "nova_lint: no rule matches the --rule filter\n");
      return 2;
    }
    rules = std::move(kept);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "nova_lint: no input paths (try --help)\n");
    return 2;
  }

  const std::vector<std::string> names = CollectFiles(paths);
  if (names.empty()) {
    std::fprintf(stderr, "nova_lint: no source files under given paths\n");
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(names.size());
  for (const std::string& n : names) {
    auto f = SourceFile::Load(n);
    if (!f) {
      std::fprintf(stderr, "nova_lint: cannot read '%s'\n", n.c_str());
      return 2;
    }
    files.push_back(std::move(*f));
  }

  const LintResult result = RunLint(files, rules);
  std::fputs(FormatText(result).c_str(), stdout);
  return result.findings.empty() ? 0 : 1;
}
