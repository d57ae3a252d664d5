// unchecked-downcast: a capability downcast (RefAs<T> / LookupAs<T>)
// whose result is dereferenced without a null check.
//
// Motivating bug: PR 1's UBSan run caught exactly this — a RefAs<T> on a
// capability of the wrong type returns null, and an immediate deref was
// undefined behaviour reachable from a guest-controlled selector. The
// kernel idiom is: bind the result, null-check it, only then use it.
// This rule keeps that fix from regressing silently.
#include <string>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

bool IsDowncastName(const std::string& s) {
  return s == "RefAs" || s == "LookupAs";
}

bool IsBoundary(const Token& t) {
  return t.kind == TokKind::kPunct &&
         (t.text == ";" || t.text == "{" || t.text == "}");
}

// True when the statement containing `i` starts with `return` — the
// downcast result propagates to a caller that owns the null check.
bool InReturnStatement(const Tokens& toks, int i) {
  for (int j = i - 1; j >= 0; --j) {
    const Token& t = toks[static_cast<std::size_t>(j)];
    if (IsBoundary(t)) {
      return IsIdent(toks, j + 1, "return");
    }
  }
  return false;
}

// Looks for a null-check of `var` within the tokens following the
// downcast: `!var`, `var ==`, `var !=`, `var ?`, `if (var)`, or a test
// macro (EXPECT_*/ASSERT_*) naming it. Returns false if the first use
// is a dereference.
bool GuardedBeforeUse(const Tokens& toks, int from, const std::string& var) {
  const int n = static_cast<int>(toks.size());
  for (int j = from; j < n && j < from + 120; ++j) {
    const Token& t = toks[static_cast<std::size_t>(j)];
    if (t.kind != TokKind::kIdent || t.text != var) continue;
    const bool deref = IsPunct(toks, j + 1, "->") || IsPunct(toks, j + 1, ".");
    const bool guarded =
        IsPunct(toks, j - 1, "!") || IsPunct(toks, j + 1, "==") ||
        IsPunct(toks, j + 1, "!=") || IsPunct(toks, j + 1, "?") ||
        IsPunct(toks, j - 1, "==") || IsPunct(toks, j - 1, "!=") ||
        (IsPunct(toks, j - 1, "(") && IsIdent(toks, j - 2, "if")) ||
        (j >= 2 &&
         toks[static_cast<std::size_t>(j - 2)].kind == TokKind::kIdent &&
         (toks[static_cast<std::size_t>(j - 2)].text.rfind("EXPECT_", 0) ==
              0 ||
          toks[static_cast<std::size_t>(j - 2)].text.rfind("ASSERT_", 0) ==
              0));
    if (guarded) return true;
    if (deref) return false;
    // Neutral use (moved, passed along): treat as handled by the callee.
    return true;
  }
  return true;  // never used again
}

class UncheckedDowncastRule : public Rule {
 public:
  const char* name() const override { return "unchecked-downcast"; }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    const Tokens& toks = ctx.toks;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent || !IsDowncastName(t.text)) continue;
      if (!IsPunct(toks, i + 1, "<")) continue;  // the definition itself
      const int targs = MatchForward(toks, i + 1);
      if (targs < 0 || !IsPunct(toks, targs + 1, "(")) continue;
      const int close = MatchForward(toks, targs + 1);
      if (close < 0) continue;

      // Immediate dereference of the temporary: always a finding.
      if (IsPunct(toks, close + 1, "->") || IsPunct(toks, close + 1, ".")) {
        out->push_back({name(), file.path(), t.line,
                        "'" + t.text +
                            "' result dereferenced immediately; bind it "
                            "and null-check before use"});
        continue;
      }
      if (InReturnStatement(toks, i)) continue;

      // Assignment form: `auto var = RefAs<...>(...)` — require a guard
      // on `var` before its first dereference.
      if (IsPunct(toks, i - 1, "=") &&
          toks[static_cast<std::size_t>(i - 2)].kind == TokKind::kIdent) {
        const std::string var = toks[static_cast<std::size_t>(i - 2)].text;
        if (!GuardedBeforeUse(toks, close + 1, var)) {
          out->push_back({name(), file.path(), t.line,
                          "'" + var + "' from '" + t.text +
                              "' is dereferenced before a null check"});
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeUncheckedDowncastRule() {
  return std::make_unique<UncheckedDowncastRule>();
}

}  // namespace nova::lint
