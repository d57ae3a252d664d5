// Compile-fail cases for hv::Guarded. The build of this file must fail on
// every line marked `expect: error` and on no other line
// (tests/compile_fail/check.cmake), so the unmarked uses below pin that the
// matching lock's token and a SerialPhase both still open the state.
#include "src/hv/guarded.h"

namespace nova::compile_fail {

using MdbState = hv::Guarded<int, hv::LockId::kMdb>;

// Stand-ins for tokens Hypervisor::ChargeLock hands out; declared only,
// since this file is compiled and never linked.
hv::LockToken<hv::LockId::kMdb> MdbToken();
hv::LockToken<hv::LockId::kSched> SchedToken();

int NoProof(MdbState& state) {
  return state.Get();  // expect: error
}

int TokenForTheWrongLock(MdbState& state) {
  return state.Get(SchedToken());  // expect: error
}

void TokenBuiltOutsideHypervisor() {
  hv::LockToken<hv::LockId::kMdb> forged;  // expect: error
  (void)forged;
}

int ProofsThatOpen(MdbState& state) {
  return state.Get(MdbToken()) + state.Get(hv::SerialPhase::kBoot);
}

}  // namespace nova::compile_fail
