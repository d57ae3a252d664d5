// Compile-fail cases for hv::KmemCharge. The build of this file must fail
// on every line marked `expect: <flag>` and on no other line
// (tests/compile_fail/check.cmake), so the unmarked uses below pin that
// moving and testing a charge stay legal.
#include <utility>

#include "src/hv/kmem.h"

namespace nova::compile_fail {

// Stand-in with Hypervisor::ChargeObjectFrames' return type (the kernel's
// own is private); [[nodiscard]] sits on the type, so it covers both.
hv::KmemCharge ChargeObjectFrames(int frames);

void DiscardTheCharge() {
  ChargeObjectFrames(1);  // expect: unused-result
}

void CopyTheCharge() {
  hv::KmemCharge charge = ChargeObjectFrames(1);
  hv::KmemCharge copy = charge;  // expect: error
}

void CopyAssignTheCharge(hv::KmemCharge& held) {
  hv::KmemCharge charge = ChargeObjectFrames(1);
  held = charge;  // expect: error
}

hv::KmemCharge MoveTheCharge(hv::KmemCharge& held) {
  hv::KmemCharge charge = ChargeObjectFrames(1);
  if (!charge) {
    return {};
  }
  held = std::move(charge);
  return ChargeObjectFrames(2);
}

}  // namespace nova::compile_fail
