// Compile-fail cases for -Werror=unused-result. The build of this file
// must fail on every line marked `expect: unused-result` and on no other
// line (tests/compile_fail/check.cmake), so the unmarked uses below pin
// that a consumed or (void)-cast result stays legal.
#include "src/hv/vtlb.h"
#include "src/sim/status.h"

namespace nova::compile_fail {

// Status and Vtlb::Outcome are [[nodiscard]] as types; TryCharge carries
// the attribute itself.
Status Write(int x);
hv::Vtlb::Outcome Resolve(int x);
[[nodiscard]] bool TryCharge(int frames);

struct Mem {
  Status Write(int x);
};
struct Machine {
  Mem& mem();
};

void DiscardedStatus() {
  Write(1);  // expect: unused-result
}

void DiscardedMemberChain(Machine& m) {
  m.mem().Write(1);  // expect: unused-result
}

void UnbracedControlledStatement(bool c) {
  if (c) Write(1);  // expect: unused-result
}

void DiscardedNodiscardBool() {
  TryCharge(4);  // expect: unused-result
}

void DiscardedOutcome() {
  Resolve(1);  // expect: unused-result
}

Status ConsumedOrVoided(Machine& m, bool x) {
  const Status s = Write(1);
  if (Write(2) == Status::kSuccess && Ok(s)) {
    (void)m.mem().Write(3);
  }
  (void)Write(4);
  (void)TryCharge(5);
  return x ? Write(5) : m.mem().Write(6);
}

}  // namespace nova::compile_fail
