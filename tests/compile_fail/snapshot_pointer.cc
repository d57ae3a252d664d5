// Compile-fail cases for the snapshot archive (src/sim/snapshot.h): an
// address cannot become a field. The build of this file must fail on
// every line marked `expect: error` and on no other line
// (tests/compile_fail/check.cmake). A pointer has no field list, and a
// pointer cast to an integer is a temporary that a field reference cannot
// bind. `ar.Verify` of such a cast does compile; the `reinterpret_cast`
// ban of cmake/check_sources.cmake catches that one.
#include <cstdint>

#include "src/sim/snapshot.h"

namespace nova::compile_fail {

struct Widget {
  int count = 0;
  Widget* next = nullptr;
};

void SavePointer(sim::SnapWriter& ar, Widget& w) {
  ar.Io(w.next);  // expect: error
}

void SaveAddress(sim::SnapWriter& ar, Widget& w) {
  ar.Io(w.count, reinterpret_cast<std::uintptr_t>(w.next));  // expect: error
}

void LoadAddress(sim::SnapReader& ar, Widget& w) {
  ar.Io(w.count, reinterpret_cast<std::uintptr_t>(w.next));  // expect: error
}

void SaveCount(sim::SnapWriter& ar, Widget& w) {
  ar.Io(w.count);
}

}  // namespace nova::compile_fail
