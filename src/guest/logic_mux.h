// Guest-logic registration.
//
// Guest kernels express dynamic, data-dependent decisions (next workload
// address, page-fault policy, command assembly) through kGuestLogic
// instructions. The handlers live in the guest-logic table of the engine
// the guest runs on; a GuestLogicMux is a guest kernel's handle on that
// engine.
#ifndef SRC_GUEST_LOGIC_MUX_H_
#define SRC_GUEST_LOGIC_MUX_H_

#include <cstdint>
#include <utility>

#include "src/hw/vm_engine.h"

namespace nova::guest {

class GuestLogicMux {
 public:
  // Register handlers with `engine` from now on.
  void Attach(hw::VmEngine& engine) { engine_ = &engine; }

  // Register a handler; returns the id to pass to isa::Assembler::GuestLogic.
  std::uint32_t Register(hw::VmEngine::GuestLogicFn fn) {
    return engine_->AddGuestLogic(std::move(fn));
  }

 private:
  hw::VmEngine* engine_ = nullptr;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_LOGIC_MUX_H_
