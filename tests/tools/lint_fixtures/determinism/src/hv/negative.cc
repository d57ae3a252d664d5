// Fixture: deterministic patterns the rule must stay silent on — an
// ordered container walk, a sim::HashIndex walked in key order, a
// pointer-keyed HashIndex that only serves lookups, and a repo type that
// happens to be called unordered_map.
class SortedIndex {
 public:
  int Walk(const Obj* key) {
    int sum = 0;
    for (const auto& kv : ordered_) {
      sum += kv.second;
    }
    hashed_.ForEachInKeyOrder([&sum](int, int v) { sum += v; });
    return sum + by_address_.At(key);
  }

 private:
  std::map<int, int> ordered_;
  sim::HashIndex<int, int> hashed_;
  sim::HashIndex<const Obj*, int> by_address_;
  unordered_map<int, int> local_type_;
};
