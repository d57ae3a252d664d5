// SourceFile: one translation unit as nova-lint sees it.
//
// Loading a file produces three synchronized views:
//  * raw lines       — exactly what is on disk (layering reads #include
//                      lines from here);
//  * code lines      — comments, string/char literals and preprocessor
//                      directives blanked to spaces, so token scans never
//                      trip over prose or macro bodies. Offsets are
//                      preserved: code[i][j] lines up with lines[i][j];
//  * suppressions    — `// nova-lint: allow(rule-a, rule-b)` comments,
//                      attached to the line they sit on (and to the next
//                      line when the comment stands alone), plus
//                      `// nova-lint: allow-file(rule)` for a whole file.
#ifndef TOOLS_NOVA_LINT_SOURCE_H_
#define TOOLS_NOVA_LINT_SOURCE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace nova::lint {

class SourceFile {
 public:
  // Builds the views from an in-memory buffer (unit tests) …
  SourceFile(std::string path, std::string text);
  // … or from disk. nullopt when the file cannot be read.
  static std::optional<SourceFile> Load(const std::string& path);

  const std::string& path() const { return path_; }
  // 1-based accessors; out-of-range returns an empty line.
  const std::string& RawLine(int line) const;
  const std::string& CodeLine(int line) const;
  int line_count() const { return static_cast<int>(lines_.size()); }

  // All comment-blanked code joined with '\n' (token scans run over this).
  const std::string& code() const { return code_joined_; }
  // Maps a byte offset in code() back to its 1-based line number.
  int LineOf(std::size_t offset) const;

  // True when `rule` findings on `line` are suppressed by an allow()
  // comment or a file-wide allow-file().
  bool Suppressed(int line, const std::string& rule) const;

 private:
  void Build(const std::string& text);
  void ParseSuppressions();

  std::string path_;
  std::vector<std::string> lines_;
  std::vector<std::string> code_;
  std::string code_joined_;
  std::vector<std::size_t> line_starts_;  // offset of each line in code_joined_
  std::map<int, std::set<std::string>> allow_;  // line -> suppressed rules
  std::set<std::string> allow_file_;
};

// Layer name ("sim", "hw", ...) of a path under src/, or "" when the path
// is not in src/.
std::string LayerOf(const std::string& path);

// Architecture rank of a layer for the layering rule: a file may include
// headers of its own rank or below, never above. Directories off the
// ladder (tests/, bench/, examples/, tools/) rank -1, unrestricted
// consumers.
//   sim(0) -> hw(1) -> hv(2) -> {services, root, vmm, guest, baseline}(3)
int LayerRank(const std::string& layer);

}  // namespace nova::lint

#endif  // TOOLS_NOVA_LINT_SOURCE_H_
