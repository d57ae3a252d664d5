// Virtual interval timer.
//
// The guest programs a periodic tick through two port writes; the VMM arms
// a host timeout and raises the timer vector at the virtual interrupt
// controller on every expiry — the "hardware timer" interrupt source of
// Table 2.
#ifndef SRC_VMM_VPIT_H_
#define SRC_VMM_VPIT_H_

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/snapshot.h"
#include "src/vmm/device_model.h"
#include "src/vmm/vpic.h"

namespace nova::vmm {

namespace vpit {
constexpr std::uint16_t kPortPeriodLo = 0x40;  // Microseconds, low 16 bits.
constexpr std::uint16_t kPortPeriodHi = 0x41;  // High 16 bits; write starts.
constexpr std::uint16_t kPortControl = 0x43;   // Write 0: stop.
constexpr std::uint8_t kVector = 32;           // Timer interrupt vector.
}  // namespace vpit

class VPit : public DeviceModel {
 public:
  // `owner` is the event-queue owner token ("vmm.<name>.vpit") under which
  // tick events are tagged; the factory registered here builds every tick
  // closure, live and restored (stale generations are dropped on fire).
  // Destruction unregisters the owner, cancelling a pending tick.
  VPit(sim::EventQueue* events, VPic* vpic, std::uint64_t owner);
  ~VPit() override;

  bool OwnsPort(std::uint16_t port) const override {
    return port >= vpit::kPortPeriodLo && port <= vpit::kPortControl;
  }
  std::uint32_t PioRead(std::uint16_t port) override;
  void PioWrite(std::uint16_t port, std::uint32_t value) override;

  std::uint64_t ticks() const { return ticks_; }
  bool running() const { return period_ != 0; }

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  void Arm();
  void Tick();

  sim::EventQueue* events_;
  VPic* vpic_;
  std::uint64_t owner_;
  sim::PicoSeconds period_ = 0;
  std::uint16_t period_lo_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VPIT_H_
