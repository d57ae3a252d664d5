#include "tools/nova_lint/lint.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

namespace nova::lint {
namespace {

bool IsSourceExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// True when `path` is `root` or sits underneath it.
bool UnderRoot(const std::string& path, const std::string& root) {
  if (path.size() < root.size() || path.compare(0, root.size(), root) != 0) {
    return false;
  }
  return path.size() == root.size() || path[root.size()] == '/' ||
         root.back() == '/';
}

// Rules excluded for `path`: those of the longest matching root.
const std::set<std::string>* ExcludedRules(const std::vector<RootSpec>& roots,
                                           const std::string& path) {
  const RootSpec* best = nullptr;
  for (const RootSpec& r : roots) {
    if (UnderRoot(path, r.path) &&
        (best == nullptr || r.path.size() > best->path.size())) {
      best = &r;
    }
  }
  return best == nullptr ? nullptr : &best->exclude;
}

// Runs `fn(i)` for every i in [0, count) across `jobs` worker threads.
// Work is handed out through an atomic counter, but every result slot is
// indexed by i, so scheduling order never shows in the output.
void ParallelFor(int count, int jobs, const std::function<void(int)>& fn) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min(jobs, count);
  if (jobs <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
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
                   const std::vector<std::unique_ptr<Rule>>& rules,
                   int jobs, const std::vector<RootSpec>& roots) {
  const auto t0 = std::chrono::steady_clock::now();
  const int count = static_cast<int>(files.size());

  // Each file is lexed once and every rule runs over its tokens; findings
  // land in per-file slots, so the merge is order-free.
  std::vector<Findings> kept(files.size());
  std::vector<int> dropped(files.size(), 0);
  ParallelFor(count, jobs, [&](int i) {
    const auto fi = static_cast<std::size_t>(i);
    const SourceFile& f = files[fi];
    const std::set<std::string>* exclude = ExcludedRules(roots, f.path());
    const Tokens toks = Lex(f);
    const FileCtx ctx{f, toks};
    Findings raw;
    for (const auto& rule : rules) {
      if (exclude != nullptr && exclude->count(rule->name()) != 0) continue;
      rule->Check(ctx, &raw);
    }
    for (Finding& fnd : raw) {
      if (f.Suppressed(fnd.line, fnd.rule)) {
        ++dropped[fi];
      } else {
        kept[fi].push_back(std::move(fnd));
      }
    }
  });

  LintResult result;
  result.files_scanned = count;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    result.suppressed += dropped[fi];
    for (Finding& fnd : kept[fi]) {
      result.findings.push_back(std::move(fnd));
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  result.wall_ms = static_cast<long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

int ApplyBaseline(LintResult* result,
                  const std::vector<std::string>& baseline_lines) {
  std::set<std::pair<std::string, std::string>> known;  // (rule, file)
  for (const std::string& line : baseline_lines) {
    std::istringstream in(line);
    std::string rule, file;
    if (!(in >> rule >> file) || rule[0] == '#') continue;
    known.emplace(rule, file);
  }
  const std::size_t before = result->findings.size();
  result->findings.erase(
      std::remove_if(result->findings.begin(), result->findings.end(),
                     [&](const Finding& f) {
                       return known.count({f.rule, f.file}) != 0;
                     }),
      result->findings.end());
  const int dropped = static_cast<int>(before - result->findings.size());
  result->baselined += dropped;
  return dropped;
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

std::string FormatJson(const LintResult& result) {
  std::string out = "{\"findings\":[";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    if (i) out += ",";
    out += "{\"rule\":";
    AppendJsonString(&out, f.rule);
    out += ",\"file\":";
    AppendJsonString(&out, f.file);
    out += ",\"line\":" + std::to_string(f.line) + ",\"message\":";
    AppendJsonString(&out, f.message);
    out += "}";
  }
  out += "],\"count\":" + std::to_string(result.findings.size()) +
         ",\"suppressed\":" + std::to_string(result.suppressed) +
         ",\"baselined\":" + std::to_string(result.baselined) +
         ",\"files_scanned\":" + std::to_string(result.files_scanned) +
         ",\"wall_ms\":" + std::to_string(result.wall_ms) + "}\n";
  return out;
}

}  // namespace nova::lint
