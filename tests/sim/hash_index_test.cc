#include "src/sim/hash_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/snapshot.h"

namespace nova::sim {
namespace {

TEST(HashIndex, LooksUpInsertsAndErases) {
  HashIndex<std::uint64_t, std::string> index;
  EXPECT_EQ(index.Find(7), nullptr);
  index[7] = "seven";
  EXPECT_TRUE(index.Insert(9, "nine"));
  EXPECT_FALSE(index.Insert(9, "again"));  // Present: left as it was.
  ASSERT_NE(index.Find(9), nullptr);
  EXPECT_EQ(*index.Find(9), "nine");
  EXPECT_EQ(index.At(7), "seven");
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Erase(7));
  EXPECT_FALSE(index.Erase(7));
  EXPECT_EQ(index.Find(7), nullptr);
  EXPECT_EQ(index.size(), 1u);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
}

TEST(HashIndex, PointerKeysServeLookups) {
  int a = 0;
  int b = 0;
  HashIndex<const int*, int> index;
  index[&a] = 1;
  index[&b] = 2;
  EXPECT_EQ(index.At(&a), 1);
  EXPECT_EQ(*index.Find(&b), 2);
}

TEST(HashIndex, WalksInAscendingKeyOrder) {
  HashIndex<std::uint64_t, int> index;
  // Enough keys, inserted out of order, that bucket order differs from
  // key order.
  for (std::uint64_t k = 0; k < 500; ++k) {
    index[(k * 7919) % 500] = static_cast<int>(k);
  }
  std::vector<std::uint64_t> keys;
  const auto& view = index;
  view.ForEachInKeyOrder([&](std::uint64_t key, const int& value) {
    keys.push_back(key);
    EXPECT_EQ(static_cast<std::uint64_t>(value) * 7919 % 500, key);
  });
  ASSERT_EQ(keys.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(keys[k], k);
  }
  index.ForEachInKeyOrder([](std::uint64_t, int& value) { value = -1; });
  EXPECT_EQ(index.At(123), -1);
}

TEST(HashIndex, KeyedRoundTripsInKeyOrder) {
  HashIndex<std::uint64_t, std::uint8_t> saved;
  saved[30] = 3;
  saved[10] = 1;
  saved[20] = 2;
  SnapWriter w;
  w.Keyed(kCount32, saved);

  SnapReader bytes(w.data().data(), w.size());
  EXPECT_EQ(bytes.U32(), 3u);
  for (std::uint64_t key : {10u, 20u, 30u}) {
    EXPECT_EQ(bytes.U64(), key);
    EXPECT_EQ(bytes.U8(), key / 10);
  }

  HashIndex<std::uint64_t, std::uint8_t> loaded;
  SnapReader r(w.data().data(), w.size());
  r.Keyed(kCount32, loaded);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.At(10), 1);
  EXPECT_EQ(loaded.At(20), 2);
  EXPECT_EQ(loaded.At(30), 3);
}

}  // namespace
}  // namespace nova::sim
