// Compile-fail cases for hv::CpuId. The build of this file must fail on
// every line marked `expect: error` and on no other line
// (tests/compile_fail/check.cmake): no integer converts to a CpuId, so
// per-core state (Hypervisor::cpu_state takes one) cannot be reached
// through a bare core number. The unmarked uses pin that a ForEachCpu
// scan names each core and that a CpuId reads as its index.
#include <cstdint>

#include "src/hv/types.h"

namespace nova::compile_fail {

// Stand-in with Hypervisor::cpu_state's parameter (the kernel's own is
// private).
void CpuState(hv::CpuId cpu);
void Charge(std::uint32_t cpu);

void NameACoreByNumber(std::uint32_t index) {
  CpuState(0);  // expect: error
  CpuState(index);  // expect: error
  CpuState(hv::CpuId(index));  // expect: error
  CpuState(hv::CpuId{1});  // expect: error
}

void ScanTheMachine(std::size_t cores) {
  hv::ForEachCpu(cores, [](hv::CpuId cpu) {
    CpuState(cpu);
    Charge(cpu);
  });
}

}  // namespace nova::compile_fail
