// Fixture for cmake/check_sources.cmake, never compiled: the one header
// that may wrap std::unordered_map.
template <class K, class V>
class HashIndex {
  std::unordered_map<K, V> map_;
};
