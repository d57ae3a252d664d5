// Fixture: the one header allowed to wrap std::unordered_map (0 findings).
template <class K, class V>
class HashIndex {
 private:
  std::unordered_map<K, V> map_;
};
