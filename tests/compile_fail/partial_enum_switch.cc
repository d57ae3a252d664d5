// Compile-fail case for -Werror=switch-enum. The build of this file must
// fail on the line marked `expect: switch-enum` and on no other line
// (tests/compile_fail/check.cmake): a `default:` does not excuse a switch
// that leaves enumerators unnamed, while an exhaustive switch compiles.
#include "src/sim/status.h"

namespace nova::compile_fail {

int PartialSwitchWithDefault(Status s) {
  switch (s) {  // expect: switch-enum
    case Status::kSuccess:
      return 0;
    default:
      return 1;
  }
}

int ExhaustiveSwitch(Status s) {
  switch (s) {
    case Status::kSuccess:
      return 0;
    case Status::kTimeout:
    case Status::kAbort:
    case Status::kBadHypercall:
    case Status::kBadCapability:
    case Status::kBadParameter:
    case Status::kBadFeature:
    case Status::kBadCpu:
    case Status::kBadDevice:
    case Status::kMemoryFault:
    case Status::kOverflow:
    case Status::kDenied:
    case Status::kBusy:
    case Status::kNoMem:
      return 1;
  }
  return 2;
}

}  // namespace nova::compile_fail
