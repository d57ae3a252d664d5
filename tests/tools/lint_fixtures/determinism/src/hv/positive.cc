// Fixture: determinism violations the rule must flag (4 findings).
// Linted only by the nova_lint_fixture_determinism ctest entry; the
// repo-wide gate skips lint_fixtures/ directories during recursion.
class ShadowIndex {
 public:
  long Now() {
    return std::chrono::steady_clock::now();  // finding: wall clock
  }
  int Pick() {
    return rand() % 4;  // finding: host randomness
  }

 private:
  std::unordered_map<int, int> table_;  // finding: unordered container
  std::map<const Obj*, int> by_address_;  // finding: pointer key
};
