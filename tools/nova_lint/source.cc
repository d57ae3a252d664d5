#include "tools/nova_lint/source.h"

#include <fstream>
#include <sstream>

namespace nova::lint {
namespace {

// Splits on '\n'; a trailing newline does not create an extra empty line.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool IsPreprocessorStart(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#';
  }
  return false;
}

// A directive continues onto the next line when a backslash is the last
// non-whitespace character (trailing blanks after the '\' are legal).
bool HasLineContinuation(const std::string& line) {
  std::size_t end = line.size();
  while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\t')) --end;
  return end > 0 && line[end - 1] == '\\';
}

// True when the '\'' at `i` is a digit separator inside a numeric
// literal (1'000'000, 0xDEAD'BEEF) rather than a character literal.
// A separator sits between two digits of a literal that begins with a
// decimal digit (or an 0x/0b prefix) not glued to an identifier — this
// keeps u8'a' and L'x' classified as character literals.
bool IsDigitSeparator(const std::string& in, std::size_t i) {
  if (i == 0 || i + 1 >= in.size()) return false;
  if (!isxdigit(static_cast<unsigned char>(in[i + 1]))) return false;
  std::size_t j = i;
  while (j > 0 && isxdigit(static_cast<unsigned char>(in[j - 1]))) --j;
  if (j == i) return false;  // no digits directly before the quote
  if (j >= 2 && (in[j - 1] == 'x' || in[j - 1] == 'X') && in[j - 2] == '0') {
    return true;
  }
  if (!isdigit(static_cast<unsigned char>(in[j]))) return false;
  return j == 0 || (!isalnum(static_cast<unsigned char>(in[j - 1])) &&
                    in[j - 1] != '_');
}

// When the '"' at `i` opens a raw string literal (R"…", LR"…", u8R"…"),
// stores the index of the first prefix character in *start and returns
// true. Plain prefixed strings (L"…", u8"…") and identifiers ending in R
// (FooBAR"…" cannot occur in valid code) are rejected.
bool IsRawStringQuote(const std::string& in, std::size_t i,
                      std::size_t* start) {
  if (i == 0 || in[i - 1] != 'R') return false;
  std::size_t p = i - 1;
  if (p > 0 && (in[p - 1] == 'L' || in[p - 1] == 'U' || in[p - 1] == 'u')) {
    --p;
  } else if (p > 1 && in[p - 1] == '8' && in[p - 2] == 'u') {
    p -= 2;
  }
  if (p > 0 && (isalnum(static_cast<unsigned char>(in[p - 1])) ||
                in[p - 1] == '_')) {
    return false;
  }
  *start = p;
  return true;
}

}  // namespace

SourceFile::SourceFile(std::string path, std::string text)
    : path_(std::move(path)) {
  Build(text);
  ParseSuppressions();
}

std::optional<SourceFile> SourceFile::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return SourceFile(path, buf.str());
}

// One pass over the raw text producing the comment/string-blanked view.
// The state machine mirrors the lexical phases the rules care about; raw
// string literals carry their delimiter so R"x(... )x" nests safely.
void SourceFile::Build(const std::string& text) {
  lines_ = SplitLines(text);
  code_ = lines_;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // delimiter of the active raw string literal
  bool preprocessor = false;  // inside a (possibly continued) directive

  for (std::size_t li = 0; li < lines_.size(); ++li) {
    const std::string& in = lines_[li];
    std::string& out = code_[li];
    if (state == State::kLineComment) state = State::kCode;

    if (state == State::kCode && !preprocessor && IsPreprocessorStart(in)) {
      preprocessor = true;
    }
    if (preprocessor) {
      // Blank the whole directive (macro bodies are not statement code);
      // continuation lines stay blanked too.
      for (char& c : out) c = ' ';
      preprocessor = HasLineContinuation(in);
      continue;
    }

    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      std::size_t raw_start = 0;
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            out[i] = out[i + 1] = ' ';
            ++i;
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            out[i] = out[i + 1] = ' ';
            ++i;
          } else if (c == '"' && IsRawStringQuote(in, i, &raw_start)) {
            // Raw string literal: blank the prefix and capture the
            // delimiter up to '('.
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < in.size() && in[j] != '(') raw_delim += in[j++];
            for (std::size_t k = raw_start; k < std::min(j + 1, in.size());
                 ++k) {
              out[k] = ' ';
            }
            i = j;
            state = State::kRawString;
          } else if (c == '"') {
            state = State::kString;
            out[i] = ' ';
          } else if (c == '\'' && !IsDigitSeparator(in, i)) {
            state = State::kChar;
            out[i] = ' ';
          }
          break;
        case State::kLineComment:
          out[i] = ' ';
          break;
        case State::kBlockComment:
          out[i] = ' ';
          if (c == '*' && next == '/') {
            out[i + 1] = ' ';
            ++i;
            state = State::kCode;
          }
          break;
        case State::kString:
        case State::kChar: {
          out[i] = ' ';
          if (c == '\\') {
            if (i + 1 < in.size()) out[++i] = ' ';
          } else if ((state == State::kString && c == '"') ||
                     (state == State::kChar && c == '\'')) {
            state = State::kCode;
          }
          break;
        }
        case State::kRawString: {
          // Close on )delim" .
          const std::string close = ")" + raw_delim + "\"";
          if (in.compare(i, close.size(), close) == 0) {
            for (std::size_t k = i; k < i + close.size(); ++k) out[k] = ' ';
            i += close.size() - 1;
            state = State::kCode;
          } else {
            out[i] = ' ';
          }
          break;
        }
      }
    }
    // Strings and char literals do not span lines (raw strings do).
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }

  code_joined_.clear();
  line_starts_.clear();
  for (const std::string& l : code_) {
    line_starts_.push_back(code_joined_.size());
    code_joined_ += l;
    code_joined_ += '\n';
  }
}

void SourceFile::ParseSuppressions() {
  static const std::string kAllow = "nova-lint: allow(";
  static const std::string kAllowFile = "nova-lint: allow-file(";
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    const std::string& raw = lines_[li];
    for (const auto& [marker, file_wide] :
         {std::pair{kAllowFile, true}, std::pair{kAllow, false}}) {
      std::size_t pos = raw.find(marker);
      if (pos == std::string::npos) continue;
      const std::size_t close = raw.find(')', pos);
      if (close == std::string::npos) continue;
      std::string list = raw.substr(pos + marker.size(),
                                    close - pos - marker.size());
      std::string name;
      auto flush = [&] {
        if (name.empty()) return;
        if (file_wide) {
          allow_file_.insert(name);
        } else {
          const int line = static_cast<int>(li) + 1;
          allow_[line].insert(name);
          // A comment standing alone on its line covers the next line.
          bool alone = true;
          for (char c : code_[li]) {
            if (c != ' ' && c != '\t') alone = false;
          }
          if (alone) allow_[line + 1].insert(name);
        }
        name.clear();
      };
      for (char c : list) {
        if (c == ',' || c == ' ') {
          flush();
        } else {
          name += c;
        }
      }
      flush();
      break;  // allow-file match also contains "allow(", don't double-parse
    }
  }
}

const std::string& SourceFile::RawLine(int line) const {
  static const std::string kEmpty;
  if (line < 1 || line > line_count()) return kEmpty;
  return lines_[static_cast<std::size_t>(line - 1)];
}

const std::string& SourceFile::CodeLine(int line) const {
  static const std::string kEmpty;
  if (line < 1 || line > line_count()) return kEmpty;
  return code_[static_cast<std::size_t>(line - 1)];
}

int SourceFile::LineOf(std::size_t offset) const {
  int lo = 0, hi = static_cast<int>(line_starts_.size()) - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (line_starts_[static_cast<std::size_t>(mid)] <= offset) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo + 1;
}

bool SourceFile::Suppressed(int line, const std::string& rule) const {
  if (allow_file_.count(rule) != 0) return true;
  auto it = allow_.find(line);
  return it != allow_.end() && it->second.count(rule) != 0;
}

std::string LayerOf(const std::string& path) {
  const std::size_t pos = path.find("src/");
  if (pos == std::string::npos) return "";
  // Only a real src/ directory component, not e.g. "foo_src/".
  if (pos != 0 && path[pos - 1] != '/') return "";
  const std::size_t start = pos + 4;
  const std::size_t end = path.find('/', start);
  if (end == std::string::npos) return "";
  return path.substr(start, end - start);
}

int LayerRank(const std::string& layer) {
  if (layer == "sim") return 0;
  if (layer == "hw") return 1;
  if (layer == "hv") return 2;
  if (layer == "services" || layer == "root" || layer == "vmm" ||
      layer == "guest" || layer == "baseline") {
    return 3;
  }
  return -1;
}

}  // namespace nova::lint
