// A hashed map that can only be walked in key order.
//
// Simulated-machine code may not iterate a hash table: its order depends on
// the hash seed, the bucket count and the library version, so a walk that
// feeds a digest, a snapshot or a scheduling decision would make a rerun
// differ. `HashIndex` keeps the O(1) lookup of `std::unordered_map` and has
// no begin()/end(); its only traversal, `ForEachInKeyOrder`, sorts the keys
// first. A pointer-keyed index still serves lookups, but walking it does
// not compile: address order is no more reproducible than hash order.
//
// This header is the one place in the simulated-machine layers that may
// name `std::unordered_*` (nova-lint's `determinism` rule exempts it).
#ifndef SRC_SIM_HASH_INDEX_H_
#define SRC_SIM_HASH_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nova::sim {

template <class K, class V>
class HashIndex {
 public:
  using key_type = K;

  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

  // The value stored under `key`, or nullptr.
  V* Find(const K& key) {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  const V* Find(const K& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  // The value stored under `key`; throws std::out_of_range when absent.
  const V& At(const K& key) const { return map_.at(key); }

  // The value under `key`, value-initialized first when absent.
  V& operator[](const K& key) { return map_[key]; }
  // Stores `value` under `key` unless the key is present; true if stored.
  bool Insert(const K& key, V value) {
    return map_.try_emplace(key, std::move(value)).second;
  }
  // Removes `key`; true if it was present.
  bool Erase(const K& key) { return map_.erase(key) != 0; }

  // Calls fn(key, value) for every entry in ascending key order.
  template <class Fn>
  void ForEachInKeyOrder(Fn&& fn) {
    InKeyOrder(map_, fn);
  }
  template <class Fn>
  void ForEachInKeyOrder(Fn&& fn) const {
    InKeyOrder(map_, fn);
  }

 private:
  template <class Map, class Fn>
  static void InKeyOrder(Map& map, Fn& fn) {
    static_assert(!std::is_pointer_v<K>,
                  "a pointer-keyed HashIndex is lookup-only: address order "
                  "differs between runs");
    std::vector<decltype(&*map.begin())> order;
    order.reserve(map.size());
    for (auto& kv : map) {
      order.push_back(&kv);
    }
    std::sort(order.begin(), order.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (auto* kv : order) {
      fn(kv->first, kv->second);
    }
  }

  std::unordered_map<K, V> map_;
};

template <class M>
inline constexpr bool kIsHashIndex = false;
template <class K, class V>
inline constexpr bool kIsHashIndex<HashIndex<K, V>> = true;

}  // namespace nova::sim

#endif  // SRC_SIM_HASH_INDEX_H_
