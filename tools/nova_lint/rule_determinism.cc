// Rule 10 `determinism`: flags nondeterminism sources that would
// silently break the repo's digest-exactness guarantees (golden traces,
// snapshot/restore twins, bit-identical SMP reruns). Inside the
// simulated-machine layers (src/sim, src/hw, src/hv, src/vmm, src/guest,
// src/root, src/services) it reports:
//   * every std::unordered_* container — its walk order depends on the
//     hash seed and the library version. Ordered containers and
//     sim::HashIndex, whose only walk sorts its keys, take their place;
//     src/sim/hash_index.h itself wraps std::unordered_map and is exempt;
//   * std:: containers keyed on pointer values — address order changes
//     run to run under ASLR and allocator drift;
//   * wall-clock and OS randomness (std::chrono, time(), rand(),
//     std::random_device, std::mt19937) outside sim::Rng — simulated
//     time must be the only clock;
//   * address-of expressions and pointer-to-integer casts flowing into
//     trace/digest/snapshot sinks — pointer values in payloads make
//     digests unreproducible.
// Every check is lexical: one file's tokens decide each finding.
#include <string>

#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

bool InSimulatedLayer(const std::string& path) {
  const std::string layer = LayerOf(path);
  return layer == "sim" || layer == "hw" || layer == "hv" ||
         layer == "vmm" || layer == "guest" || layer == "root" ||
         layer == "services";
}

bool IsUnorderedContainer(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

bool IsOrderedKeyed(const std::string& s) {
  return s == "map" || s == "set" || s == "multimap" || s == "multiset";
}

bool IsRandomnessSource(const std::string& s) {
  return s == "rand" || s == "srand" || s == "random_device" ||
         s == "mt19937" || s == "mt19937_64" || s == "minstd_rand";
}

// Snapshot/digest/trace payload sinks: SnapWriter's fixed-width writers,
// the snapshot archive visitor (sim/snapshot.h) and anything with Digest
// in the name.
bool IsPayloadSink(const std::string& s) {
  return s == "U64" || s == "U32" || s == "U16" || s == "U8" ||
         s == "Bytes" || s == "Io" || s == "Verify" || s == "Seq" ||
         s == "Keyed" || s.find("Digest") != std::string::npos;
}

// True when the first argument of the template list `open`..`close`
// mentions a pointer.
bool FirstArgHasPointer(const Tokens& toks, int open, int close) {
  int depth = 0;
  for (int k = open + 1; k < close; ++k) {
    if (IsPunct(toks, k, "<") || IsPunct(toks, k, "(")) ++depth;
    if (IsPunct(toks, k, ">") || IsPunct(toks, k, ")")) --depth;
    if (IsPunct(toks, k, ">>")) depth -= 2;
    if (depth == 0 && IsPunct(toks, k, ",")) return false;
    if (IsPunct(toks, k, "*")) return true;
  }
  return false;
}

class DeterminismRule final : public Rule {
 public:
  const char* name() const override { return "determinism"; }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    const Tokens& toks = ctx.toks;
    if (!InSimulatedLayer(file.path())) return;
    if (file.path().find("src/sim/rng") != std::string::npos) {
      return;  // the one sanctioned randomness wrapper
    }
    const bool hash_index =
        file.path().find("src/sim/hash_index.h") != std::string::npos;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent) continue;

      // std:: containers: unordered ones are banned, keyed ones must not
      // key on pointers. Repo types named map/set are not std::'s.
      if ((IsUnorderedContainer(t.text) || IsOrderedKeyed(t.text)) &&
          IsPunct(toks, i - 1, "::") && IsIdent(toks, i - 2, "std")) {
        if (IsUnorderedContainer(t.text) && !hash_index) {
          out->push_back({name(), file.path(), t.line,
                          "std::" + t.text +
                              " in simulated code: its iteration order "
                              "depends on the hash; use an ordered container "
                              "or sim::HashIndex"});
        }
        const int close =
            IsPunct(toks, i + 1, "<") ? MatchForward(toks, i + 1) : -1;
        if (close > 0 && FirstArgHasPointer(toks, i + 1, close)) {
          out->push_back(
              {name(), file.path(), t.line,
               "container keyed on pointer values: address order is not "
               "reproducible across runs; key on a stable id instead"});
        }
        continue;
      }

      // Wall-clock and OS randomness.
      if (t.text == "chrono" && IsPunct(toks, i - 1, "::") &&
          IsIdent(toks, i - 2, "std")) {
        out->push_back({name(), file.path(), t.line,
                        "std::chrono wall clock in simulated code: "
                        "sim::EventQueue::now() is the only clock"});
        continue;
      }
      if (IsRandomnessSource(t.text) &&
          (IsPunct(toks, i - 1, "::") || IsPunct(toks, i + 1, "("))) {
        out->push_back({name(), file.path(), t.line,
                        "host randomness source '" + t.text +
                            "' outside sim::Rng breaks reproducibility"});
        continue;
      }
      if (t.text == "time" && i > 0 && IsPunct(toks, i + 1, "(") &&
          !IsPunct(toks, i - 1, ".") && !IsPunct(toks, i - 1, "->") &&
          toks[static_cast<std::size_t>(i - 1)].kind != TokKind::kIdent) {
        out->push_back({name(), file.path(), t.line,
                        "time() wall clock in simulated code"});
        continue;
      }

      // Pointer values flowing into digest/snapshot payloads.
      if (IsPayloadSink(t.text) && IsPunct(toks, i + 1, "(") &&
          (IsPunct(toks, i - 1, ".") || IsPunct(toks, i - 1, "->"))) {
        const int close = MatchForward(toks, i + 1);
        for (int k = i + 2; k >= 0 && k < close; ++k) {
          const bool addr_of =
              IsPunct(toks, k, "&") &&
              (IsPunct(toks, k - 1, "(") || IsPunct(toks, k - 1, ",")) &&
              toks[static_cast<std::size_t>(k + 1)].kind == TokKind::kIdent;
          const bool ptr_cast =
              IsIdent(toks, k, "reinterpret_cast") &&
              (IsIdent(toks, k + 2, "uintptr_t") ||
               IsIdent(toks, k + 4, "uintptr_t"));
          if (addr_of || ptr_cast) {
            out->push_back(
                {name(), file.path(), toks[static_cast<std::size_t>(k)].line,
                 "pointer value leaks into a digest/snapshot payload: "
                 "addresses are not stable across runs or restores"});
            break;
          }
        }
        continue;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeDeterminismRule() {
  return std::make_unique<DeterminismRule>();
}

}  // namespace nova::lint
