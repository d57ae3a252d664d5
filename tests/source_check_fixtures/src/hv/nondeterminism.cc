// Fixture for cmake/check_sources.cmake, never compiled: one line per
// determinism check. A std::unordered_map named in a comment is not code.
class ShadowIndex {
 public:
  long Now() { return std::chrono::steady_clock::now(); }  // expect: determinism
  long Wall() { return time(nullptr); }  // expect: determinism
  int Pick() { return rand() % 4; }  // expect: determinism
  std::uint64_t Seed() { return std::random_device{}(); }  // expect: determinism
  std::uint64_t Key(const Obj* p) {
    return reinterpret_cast<std::uintptr_t>(p);  // expect: determinism
  }
  sim::PicoSeconds Local(const hw::Cpu& c) { return c.time(); }

 private:
  std::unordered_map<int, int> table_;  // expect: determinism
  std::map<const Obj*, int> by_address_;  // expect: determinism
  std::map<int, const Obj*> by_id_;
  sim::HashIndex<const Obj*, int> lookups_;
};
