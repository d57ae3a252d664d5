// Compile-fail cases for sim::HashIndex. The build of this file must fail
// on every line marked `expect: error` and on no other line
// (tests/compile_fail/check.cmake): a HashIndex has no begin()/end(), and
// a pointer-keyed one cannot be walked even in key order. The unmarked
// uses pin that lookups on pointer keys and ordered walks on value keys
// stay legal.
#include "src/sim/hash_index.h"

namespace nova::compile_fail {

int RangeFor(sim::HashIndex<int, int>& index) {
  int sum = 0;
  for (const auto& kv : index) sum += kv.second;  // expect: error
  return sum;
}

void WalkByAddress(sim::HashIndex<const int*, int>& index) {
  index.ForEachInKeyOrder([](const int*, int&) {});  // expect: error
}

int LegalUses(sim::HashIndex<int, int>& by_value,
              sim::HashIndex<const int*, int>& by_address, const int* key) {
  int sum = 0;
  by_value.ForEachInKeyOrder([&sum](int, int& v) { sum += v; });
  if (const int* v = by_address.Find(key)) {
    sum += *v;
  }
  return sum;
}

}  // namespace nova::compile_fail
