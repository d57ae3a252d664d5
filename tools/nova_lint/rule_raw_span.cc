// raw-span: manual BeginAt/EndAt span emission outside sim::ScopedSpan.
//
// Motivating bug class: a hand-paired Begin/End around code with an
// early return leaves the span open — TraceReport then attributes the
// rest of the run to it and the golden-trace digests diverge between
// otherwise identical runs. ScopedSpan's destructor ends the span on
// every exit path; the only places allowed to touch the primitives are
// ScopedSpan itself and the tracer's own unit tests (both carry
// suppressions).
#include <string>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

class RawSpanRule : public Rule {
 public:
  const char* name() const override { return "raw-span"; }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    const Tokens& toks = ctx.toks;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent ||
          (t.text != "BeginAt" && t.text != "EndAt")) {
        continue;
      }
      if (!IsPunct(toks, i + 1, "(")) continue;
      if (!(IsPunct(toks, i - 1, ".") || IsPunct(toks, i - 1, "->"))) {
        continue;  // declaration or definition, not an emission
      }
      out->push_back({name(), file.path(), t.line,
                      "manual span emission via '" + t.text +
                          "'; use sim::ScopedSpan so the End fires on "
                          "every return path"});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeRawSpanRule() {
  return std::make_unique<RawSpanRule>();
}

}  // namespace nova::lint
