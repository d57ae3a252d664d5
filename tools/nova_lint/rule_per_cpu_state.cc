// per-cpu-state: per-core kernel state touched without naming the core.
//
// Motivating contract: the multicore refactor keys every ready queue,
// current-SC slot and halted-vCPU list by core (Kernel::CpuState). Any
// function that reaches into that state must say *which* core it operates
// on — by taking an explicit cpu id parameter, or an Sc*/Ec* whose home
// core it uses. A function that grabs `cpu_state(...)`/`cpu_states_`
// without such a parameter is almost always smuggling in an ambient
// "current CPU" assumption left over from the single-core kernel, which
// is exactly the bug class this refactor removes. Machine-wide scans
// (the device-time floor, the idle check) are legitimate and annotate
// themselves with `// nova-lint: allow(per-cpu-state)`.
//
// Scope: src/hv only — that is where CpuState lives.
#include <cctype>
#include <string>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

bool NameMentionsCpu(const std::string& ident) {
  std::string lower;
  lower.reserve(ident.size());
  for (char c : ident) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return lower.find("cpu") != std::string::npos;
}

// True when the parameter list toks[open+1, close) names a core: a
// parameter whose name or type mentions "cpu" (cpu_id, vcpu, ...), or an
// Sc*/Ec* parameter (those objects carry their home core).
bool ParamsNameACore(const Tokens& toks, int open, int close) {
  for (int i = open + 1; i < close; ++i) {
    const Token& t = toks[static_cast<std::size_t>(i)];
    if (t.kind != TokKind::kIdent) continue;
    if (NameMentionsCpu(t.text)) return true;
    if ((t.text == "Sc" || t.text == "Ec") && IsPunct(toks, i + 1, "*")) {
      return true;
    }
  }
  return false;
}

// True when toks[i] is a control-statement keyword (`if constexpr` ends
// in `constexpr`): the parens after it hold a loop or condition header,
// not a parameter list.
bool IsControlKeyword(const Tokens& toks, int i) {
  for (const char* kw : {"for", "if", "while", "switch", "catch", "constexpr"}) {
    if (IsIdent(toks, i, kw)) return true;
  }
  return false;
}

// Finds the parameter list of the function enclosing token `i`.
// Walks outward over enclosing '{'s; for each, checks whether it opens a
// function body (the tokens before it end in a ')' — possibly through
// const/noexcept/override and a constructor init list — that does not
// close a control statement's header). Returns true with *open/*close set
// to the parameter parens, false when token `i` is not inside a function
// body (e.g. a member declaration at class scope).
bool EnclosingFunctionParams(const Tokens& toks, int i, int* open, int* close) {
  int depth = 0;
  for (int j = i - 1; j >= 0; --j) {
    const Token& t = toks[static_cast<std::size_t>(j)];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "}") { ++depth; continue; }
    if (t.text != "{") continue;
    if (depth > 0) { --depth; continue; }
    // Enclosing '{' at j. Look backwards for the param-list ')'.
    int k = j - 1;
    while (k >= 0 &&
           (IsIdent(toks, k, "const") || IsIdent(toks, k, "noexcept") ||
            IsIdent(toks, k, "override") || IsIdent(toks, k, "final"))) {
      --k;
    }
    // Hop over a constructor init list: `) : a_(x), b_(y) {`.
    while (k >= 0 && IsPunct(toks, k, ")")) {
      const int o = MatchBackward(toks, k);
      if (o < 0) return false;
      if (IsControlKeyword(toks, o - 1)) break;  // A control block.
      // `ident (` preceded by ':' or ',' is an initializer, keep hopping;
      // otherwise this is the parameter list itself.
      const int before_name = o - 2;  // o-1 is the initializer/function name
      if (o >= 1 && toks[static_cast<std::size_t>(o - 1)].kind == TokKind::kIdent &&
          before_name >= 0 &&
          (IsPunct(toks, before_name, ":") || IsPunct(toks, before_name, ","))) {
        k = before_name - (IsPunct(toks, before_name, ",") ? 0 : 1);
        // Continue scanning left of the ':'/',' for the next ')'.
        while (k >= 0 && !IsPunct(toks, k, ")")) --k;
        continue;
      }
      *open = o;
      *close = k;
      return true;
    }
    // Enclosing brace is not a function body (class/namespace/initializer
    // braces): keep walking outwards.
  }
  return false;
}

class PerCpuStateRule : public Rule {
 public:
  const char* name() const override { return "per-cpu-state"; }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    if (file.path().find("src/hv/") == std::string::npos) return;

    const Tokens& toks = ctx.toks;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      const bool member = IsIdent(toks, i, "cpu_states_");
      const bool accessor =
          IsIdent(toks, i, "cpu_state") && IsPunct(toks, i + 1, "(");
      if (!member && !accessor) continue;

      int open = -1, close = -1;
      if (!EnclosingFunctionParams(toks, i, &open, &close)) {
        // Class-scope declaration (or the accessor's own signature), not
        // an access.
        continue;
      }
      if (ParamsNameACore(toks, open, close)) continue;
      out->push_back(
          {name(), file.path(), toks[static_cast<std::size_t>(i)].line,
           "per-CPU kernel state accessed in a function without an "
           "explicit cpu id or Sc*/Ec* parameter; thread the core through "
           "the signature (or annotate a machine-wide scan with allow())"});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakePerCpuStateRule() {
  return std::make_unique<PerCpuStateRule>();
}

}  // namespace nova::lint
