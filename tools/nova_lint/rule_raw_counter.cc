// raw-counter: a kernel counter bump that bypasses trace co-emission.
//
// Motivating contract: PR 4 made bench/tab2_events derive Table 2 from
// the trace stream and hard-abort on any trace/counter divergence. That
// only holds if every Counter::Add in the hypervisor happens at a call
// site that also emits the matching trace event — via CountEvent, or
// with an adjacent Mark()/Instant emission (the vTLB's idiom). A bare
// bump silently skews the equality the benches assert.
//
// Scope: src/hv only — device-model counters (src/hw) have no Table 2
// twin and are exempt by design.
#include <string>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

// Trace co-emission markers accepted within +/-2 lines of the bump.
bool LineHasCoEmission(const std::string& code) {
  return code.find("CountEvent") != std::string::npos ||
         code.find("Mark(") != std::string::npos ||
         code.find("InstantAt") != std::string::npos ||
         code.find("Instant(") != std::string::npos ||
         code.find("ScopedSpan") != std::string::npos;
}

class RawCounterRule : public Rule {
 public:
  const char* name() const override { return "raw-counter"; }
  const char* summary() const override {
    return "hypervisor counter bump without trace co-emission";
  }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    if (file.path().find("src/hv/") == std::string::npos) return;

    const Tokens& toks = ctx.toks;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      if (!IsIdent(toks, i, "Add") || !IsPunct(toks, i + 1, "(")) continue;
      if (!(IsPunct(toks, i - 1, ".") || IsPunct(toks, i - 1, "->"))) {
        continue;
      }
      const int line = toks[static_cast<std::size_t>(i)].line;

      // A string-keyed registry lookup feeding the bump is always wrong
      // on a kernel path, co-emitted or not: cache the Counter&.
      bool string_keyed = false;
      for (int j = i - 1; j >= 0 && j >= i - 16; --j) {
        const Token& t = toks[static_cast<std::size_t>(j)];
        if (t.kind == TokKind::kPunct &&
            (t.text == ";" || t.text == "{" || t.text == "}")) {
          break;
        }
        if (t.kind == TokKind::kIdent && t.text == "counter" &&
            IsPunct(toks, j + 1, "(")) {
          string_keyed = true;
          break;
        }
      }
      if (string_keyed) {
        out->push_back({name(), file.path(), line,
                        "string-keyed counter lookup on a kernel path; "
                        "cache the Counter& (HotCounters) and bump it via "
                        "CountEvent"});
        continue;
      }

      bool co_emitted = false;
      for (int l = line - 2; l <= line + 2; ++l) {
        if (l != line && LineHasCoEmission(file.CodeLine(l))) {
          co_emitted = true;
          break;
        }
        // Same line counts too (e.g. a one-line CountEvent body).
        if (l == line) {
          const std::string& code = file.CodeLine(l);
          // Ignore the Add call itself when looking for markers.
          if (LineHasCoEmission(code)) {
            co_emitted = true;
            break;
          }
        }
      }
      if (!co_emitted) {
        out->push_back({name(), file.path(), line,
                        "counter bump without trace co-emission; use "
                        "CountEvent (or emit the matching trace instant "
                        "at this site) so trace/counter equality holds"});
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeRawCounterRule() {
  return std::make_unique<RawCounterRule>();
}

}  // namespace nova::lint
