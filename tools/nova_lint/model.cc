#include "tools/nova_lint/model.h"

#include <cctype>
#include <utility>

namespace nova::lint {
namespace {

const Token& At(const Tokens& toks, int i) {
  return toks[static_cast<std::size_t>(i)];
}

bool TokIsIdent(const Tokens& toks, int i) {
  return i >= 0 && i < static_cast<int>(toks.size()) &&
         At(toks, i).kind == TokKind::kIdent;
}

bool IsStmtKeyword(const std::string& s) {
  return s == "using" || s == "typedef" || s == "friend" ||
         s == "template" || s == "static_assert" || s == "enum" ||
         s == "class" || s == "struct" || s == "union" || s == "operator";
}

bool IsCallKeyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "return" || s == "sizeof" || s == "catch" ||
         s == "static_assert" || s == "alignof" || s == "decltype" ||
         s == "noexcept" || s == "new" || s == "delete";
}

// Parses `// guarded-by(<lock>)` from the raw declaration line, or from
// a comment-only line directly above it.
std::string GuardedByOf(const SourceFile& f, int line) {
  static const std::string kMarker = "guarded-by(";
  for (const int l : {line, line - 1}) {
    const std::string& raw = f.RawLine(l);
    const std::size_t pos = raw.find(kMarker);
    if (pos == std::string::npos) continue;
    if (l != line) {
      // The line above only counts when it is comment-only.
      bool blank = true;
      for (char c : f.CodeLine(l)) {
        if (c != ' ' && c != '\t') blank = false;
      }
      if (!blank) continue;
    }
    const std::size_t close = raw.find(')', pos);
    if (close == std::string::npos) continue;
    std::string lock =
        raw.substr(pos + kMarker.size(), close - pos - kMarker.size());
    // Only identifier lock names are annotations; prose like
    // `guarded-by(<lock>)` in documentation is not.
    bool ident = !lock.empty();
    for (char c : lock) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        ident = false;
      }
    }
    if (!ident) continue;
    return lock;
  }
  return "";
}

// Walks one class body at member depth (nested brace groups skipped) and
// records every data-member declaration with its type text.
void IndexClassMembers(const SourceFile& f, const Tokens& toks,
                       const ClassScope& cls, ProjectModel* model) {
  int i = cls.body_open + 1;
  while (i < cls.body_close) {
    // Access specifiers are statement separators.
    if ((IsIdent(toks, i, "public") || IsIdent(toks, i, "private") ||
         IsIdent(toks, i, "protected")) &&
        IsPunct(toks, i + 1, ":")) {
      i += 2;
      continue;
    }
    if (IsPunct(toks, i, ";")) {
      ++i;
      continue;
    }
    // Collect one statement: tokens up to a top-level ';', with balanced
    // groups skipped. A '{' ends the declarator when it is a body or
    // nested type (discard) but continues it when it is a brace init.
    const int start = i;
    int trunc = -1;     // '=' or brace-init position: end of the decl part
    bool fn_decl = false;  // saw a top-level '(': function declaration
    int j = i;
    while (j < cls.body_close) {
      if (IsPunct(toks, j, ";")) break;
      if (IsPunct(toks, j, "<")) {
        const int c = MatchForward(toks, j);
        if (c > 0 && c < cls.body_close) {
          j = c + 1;
          continue;
        }
      }
      if (IsPunct(toks, j, "(") || IsPunct(toks, j, "[")) {
        if (At(toks, j).text == "(") fn_decl = true;
        const int c = MatchForward(toks, j);
        if (c < 0) break;
        j = c + 1;
        continue;
      }
      if (IsPunct(toks, j, "=") && trunc < 0) trunc = j;
      if (IsPunct(toks, j, "{")) {
        const int c = MatchForward(toks, j);
        if (c < 0) break;
        const bool brace_init = !fn_decl && TokIsIdent(toks, j - 1) &&
                                !IsStmtKeyword(At(toks, start).text);
        if (brace_init) {
          if (trunc < 0) trunc = j;
          j = c + 1;
          continue;
        }
        // Method body / nested type body: discard this statement.
        j = c + 1;
        fn_decl = true;  // poison: never a data member
        break;
      }
      ++j;
    }
    const int stmt_end = trunc >= 0 ? trunc : j;
    // Resume after the ';' that ended the statement; a discarded body
    // ends with j already past its '}'. Always make progress.
    i = IsPunct(toks, j, ";") ? j + 1 : j;
    if (i <= start) i = start + 1;

    if (fn_decl || stmt_end <= start + 1) continue;
    if (TokIsIdent(toks, start) && IsStmtKeyword(At(toks, start).text)) {
      continue;
    }
    // Member name: last identifier of the declarator, ignoring trailing
    // array extents (already skipped as groups above).
    int name_idx = -1;
    for (int k = stmt_end - 1; k > start; --k) {
      if (TokIsIdent(toks, k)) {
        name_idx = k;
        break;
      }
    }
    if (name_idx <= start) continue;
    MemberDecl m;
    m.cls = cls.name;
    m.name = At(toks, name_idx).text;
    m.line = At(toks, name_idx).line;
    m.file = f.path();
    for (int k = start; k < name_idx; ++k) {
      if (!m.type.empty()) m.type += ' ';
      m.type += At(toks, k).text;
    }
    m.guarded_by = GuardedByOf(f, m.line);
    model->members.push_back(std::move(m));
  }
}

// Records every function definition with its call sites and ChargeLock
// charges, plus the standalone lock-site table.
void IndexFunctions(const SourceFile& f, const Tokens& toks,
                    const FileScopes& scopes, ProjectModel* model) {
  for (const FuncScope& fn : scopes.functions) {
    FuncDef d;
    d.name = fn.name;
    d.qualifier = fn.qualifier;
    d.file = f.path();
    d.line = fn.line;
    for (int i = fn.body_open + 1; i < fn.body_close; ++i) {
      if (!TokIsIdent(toks, i) || !IsPunct(toks, i + 1, "(")) continue;
      const std::string& callee = At(toks, i).text;
      if (IsCallKeyword(callee)) continue;
      d.calls.insert(callee);
      if (callee == "ChargeLock") {
        const auto args = SplitTopLevelArgs(toks, i + 1);
        if (args.empty()) continue;
        // The lock argument may be qualified (state.lock_): key on the
        // last identifier, which is the KernelLock member name.
        std::string lock;
        for (int k = args[0].second - 1; k >= args[0].first; --k) {
          if (TokIsIdent(toks, k)) {
            lock = At(toks, k).text;
            break;
          }
        }
        if (lock.empty()) continue;
        d.locks.insert(lock);
        model->lock_sites.push_back(
            LockSite{lock, d.name, f.path(), At(toks, i).line});
      }
    }
    model->functions.push_back(std::move(d));
  }
}

}  // namespace

int ProjectModel::LayerRank(const std::string& layer) {
  if (layer == "sim") return 0;
  if (layer == "hw") return 1;
  if (layer == "hv") return 2;
  if (layer == "services" || layer == "root" || layer == "vmm" ||
      layer == "guest" || layer == "baseline") {
    return 3;
  }
  return -1;
}

std::string ProjectModel::LayerOf(const std::string& path) {
  const std::size_t pos = path.find("src/");
  if (pos == std::string::npos) return "";
  // Only a real src/ directory component, not e.g. "foo_src/".
  if (pos != 0 && path[pos - 1] != '/') return "";
  const std::size_t start = pos + 4;
  const std::size_t end = path.find('/', start);
  if (end == std::string::npos) return "";
  return path.substr(start, end - start);
}

const FuncDef* ProjectModel::FunctionAt(const std::string& file,
                                        int line) const {
  for (const FuncDef& d : functions) {
    if (d.line == line && d.file == file) return &d;
  }
  return nullptr;
}

std::vector<const FuncDef*> ProjectModel::FindFunctions(
    const std::string& name) const {
  std::vector<const FuncDef*> out;
  for (const FuncDef& d : functions) {
    if (d.name == name) out.push_back(&d);
  }
  return out;
}

std::vector<const MemberDecl*> ProjectModel::GuardedMembers() const {
  std::vector<const MemberDecl*> out;
  for (const MemberDecl& m : members) {
    if (!m.guarded_by.empty()) out.push_back(&m);
  }
  return out;
}

ProjectModel BuildModel(const std::vector<SourceFile>& files,
                        const std::vector<Tokens>& toks,
                        const std::vector<FileScopes>& scopes) {
  ProjectModel model;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    for (const ClassScope& cls : scopes[fi].classes) {
      IndexClassMembers(files[fi], toks[fi], cls, &model);
    }
    IndexFunctions(files[fi], toks[fi], scopes[fi], &model);
  }
  return model;
}

ProjectModel BuildModel(const std::vector<SourceFile>& files) {
  std::vector<Tokens> toks;
  std::vector<FileScopes> scopes;
  toks.reserve(files.size());
  scopes.reserve(files.size());
  for (const SourceFile& f : files) {
    toks.push_back(Lex(f));
    scopes.push_back(BuildFileScopes(toks.back()));
  }
  return BuildModel(files, toks, scopes);
}

}  // namespace nova::lint
