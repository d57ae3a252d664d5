// Fixture: an unordered container carrying a justified allow() — the
// rule must count it as suppressed, not report it.
class CountingIndex {
 public:
  bool Seen(int k) const { return seen_.count(k) != 0; }

 private:
  // nova-lint: allow(determinism) -- membership tests only, never walked
  std::unordered_set<int> seen_;
};
