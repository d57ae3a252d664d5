// Virtual interrupt controller.
//
// A simplified programmable interrupt controller with per-vector pending,
// in-service and mask state. The guest's interrupt-service routine performs
// the classic four-step handshake — read vector, mask, EOI, unmask — each
// step a port access that exits to the VMM, which is exactly the "up to
// four more VM exits" interrupt-virtualization cost of §8.2.
#ifndef SRC_VMM_VPIC_H_
#define SRC_VMM_VPIC_H_

#include <cstdint>
#include <functional>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/vmm/device_model.h"

namespace nova::vmm {

namespace vpic {
constexpr std::uint16_t kPortVector = 0x20;  // Read: highest pending. Write: EOI.
constexpr std::uint16_t kPortMask = 0x21;    // Write: mask vector <value>.
constexpr std::uint16_t kPortUnmask = 0x22;  // Write: unmask vector <value>.
constexpr std::uint16_t kPortRaise = 0x23;   // Write: software-raise (testing).
constexpr std::uint8_t kNoVector = 0xff;
}  // namespace vpic

class VPic : public DeviceModel {
 public:
  // `kick` is invoked whenever a vector becomes deliverable (the VMM
  // recalls the virtual CPU to inject in a timely manner, §7.5).
  explicit VPic(std::function<void()> kick)
      : DeviceModel("vpic"), kick_(std::move(kick)) {}

  // Device-model side: raise a virtual interrupt.
  void Raise(std::uint8_t vector);

  // VMM injection side.
  bool HasDeliverable() const;
  std::uint8_t HighestDeliverable() const;  // kNoVector if none.
  // Mark `vector` as being injected: pending -> in-service.
  void BeginService(std::uint8_t vector);

  bool OwnsPort(std::uint16_t port) const override {
    return port >= vpic::kPortVector && port <= vpic::kPortRaise;
  }
  std::uint32_t PioRead(std::uint16_t port) override;
  void PioWrite(std::uint16_t port, std::uint32_t value) override;

  std::uint64_t raised() const { return raised_; }
  std::uint64_t injected() const { return injected_; }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(pending_, in_service_, masked_, raised_, injected_);
  }

 private:
  std::uint64_t pending_ = 0;
  std::uint64_t in_service_ = 0;
  std::uint64_t masked_ = 0;
  std::function<void()> kick_;
  std::uint64_t raised_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VPIC_H_
