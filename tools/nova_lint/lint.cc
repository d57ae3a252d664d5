#include "tools/nova_lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

namespace nova::lint {
namespace {

bool IsSourceExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

}  // namespace

std::vector<std::string> CollectFiles(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      out.push_back(p);
      continue;
    }
    if (!fs::is_directory(p, ec)) continue;
    for (fs::recursive_directory_iterator it(p, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory(ec) &&
          it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();  // deliberate violations live here
        continue;
      }
      if (it->is_regular_file(ec) && IsSourceExtension(it->path())) {
        out.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LintResult RunLint(const std::vector<SourceFile>& files,
                   const std::vector<std::unique_ptr<Rule>>& rules) {
  LintResult result;
  result.files_scanned = static_cast<int>(files.size());
  for (const SourceFile& f : files) {
    const Tokens toks = Lex(f);
    const FileCtx ctx{f, toks};
    Findings raw;
    for (const auto& rule : rules) {
      rule->Check(ctx, &raw);
    }
    for (Finding& fnd : raw) {
      if (f.Suppressed(fnd.line, fnd.rule)) {
        ++result.suppressed;
      } else {
        result.findings.push_back(std::move(fnd));
      }
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

std::string FormatText(const LintResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  out += "nova-lint: " + std::to_string(result.findings.size()) +
         " finding(s), " + std::to_string(result.suppressed) +
         " suppressed, " + std::to_string(result.files_scanned) +
         " file(s) scanned\n";
  return out;
}

}  // namespace nova::lint
