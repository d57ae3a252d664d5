// quota-symmetry: a file that charges kernel memory must also credit it.
//
// Motivating bug: PR 1's shadow-table frame leak — level-0 shadow frames
// were charged on fill but never credited on teardown, so a long-lived VM
// slowly exhausted the kernel pool. The per-PD quota work (PR 3) made
// the charge/credit pairing a hard invariant: every AllocFrameFor /
// ChargeKmem / TryCharge / GrowLimit call path needs a matching
// FreeFrameFor / CreditKmem / Credit / ShrinkLimit somewhere in the same
// translation unit (destructor, release hook or Reclaim path).
//
// The check is per-file presence, not per-path flow analysis: precise
// enough to catch a forgotten credit, cheap enough to run on every build.
#include <array>
#include <set>
#include <string>

#include "tools/nova_lint/lexer.h"
#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

struct Pair {
  const char* charge;
  const char* credit;
};

constexpr std::array<Pair, 5> kPairs = {{
    {"AllocFrameFor", "FreeFrameFor"},
    {"ChargeKmem", "CreditKmem"},
    {"TryCharge", "Credit"},
    {"GrowLimit", "ShrinkLimit"},
    {"ChargeObjectFrames", "CreditKmem"},
}};

// A *call* occurrence: `name(` where the preceding token is not a type
// name. Declarations (`bool TryCharge(...)`) and definitions are
// preceded by their return type and do not count on either side.
bool IsCall(const Tokens& toks, int i) {
  if (!IsPunct(toks, i + 1, "(")) return false;
  if (i == 0) return true;
  const Token& prev = toks[static_cast<std::size_t>(i - 1)];
  if (prev.kind != TokKind::kIdent) return prev.text != "~";
  return prev.text == "return" || prev.text == "co_return";
}

class QuotaSymmetryRule : public Rule {
 public:
  const char* name() const override { return "quota-symmetry"; }
  const char* summary() const override {
    return "kernel-memory charge without a matching credit in the file";
  }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    // Only the hypervisor sources are bound by the pairing invariant;
    // tests intentionally exercise single sides of it.
    if (LayerOf(file.path()).empty()) return;

    const Tokens& toks = ctx.toks;
    const int n = static_cast<int>(toks.size());
    std::set<std::string> calls;
    // First call line per name, for the diagnostic location.
    std::array<int, kPairs.size()> first_charge_line;
    first_charge_line.fill(0);

    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent || !IsCall(toks, i)) continue;
      calls.insert(t.text);
      for (std::size_t p = 0; p < kPairs.size(); ++p) {
        if (t.text == kPairs[p].charge && first_charge_line[p] == 0) {
          first_charge_line[p] = t.line;
        }
      }
    }

    for (std::size_t p = 0; p < kPairs.size(); ++p) {
      if (first_charge_line[p] == 0) continue;
      if (calls.count(kPairs[p].credit) != 0) continue;
      out->push_back({name(), file.path(), first_charge_line[p],
                      std::string("'") + kPairs[p].charge +
                          "' charges kernel memory but this file never "
                          "calls '" +
                          kPairs[p].credit +
                          "'; add the credit to the owning destructor or "
                          "Reclaim path"});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeQuotaSymmetryRule() {
  return std::make_unique<QuotaSymmetryRule>();
}

}  // namespace nova::lint
