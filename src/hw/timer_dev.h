// Platform timer: a periodic tick source on a GSI (HPET/PIT stand-in) with
// a small PIO programming interface, used by the hypervisor scheduler and
// visible to guests as "hardware interrupts" in Table 2.
#ifndef SRC_HW_TIMER_DEV_H_
#define SRC_HW_TIMER_DEV_H_

#include <cstdint>

#include "src/hw/device.h"
#include "src/hw/irq.h"
#include "src/sim/event_queue.h"

namespace nova::hw {

namespace timer {
constexpr std::uint16_t kPortPeriodLo = 0x40;  // Period in microseconds, low 16.
constexpr std::uint16_t kPortPeriodHi = 0x41;  // Period, high 16; write starts.
constexpr std::uint16_t kPortControl = 0x43;   // Write 0 to stop.
}  // namespace timer

class PlatformTimer : public Device {
 public:
  PlatformTimer(DeviceId id, IrqChip* irq, std::uint32_t gsi,
                sim::EventQueue* events)
      : Device(id, "timer"), irq_(irq), gsi_(gsi), events_(events) {
    event_owner_ = events_->RegisterOwner(
        sim::EventQueue::OwnerToken("hw.timer"),
        [this](const sim::EventTag& tag) {
          return [this, gen = tag.a] {
            if (gen == generation_) {
              Tick();
            }
          };
        });
  }

  std::uint64_t MmioRead(std::uint64_t, unsigned) override { return 0; }
  void MmioWrite(std::uint64_t, unsigned, std::uint64_t) override {}

  std::uint32_t PioRead(std::uint16_t port, unsigned size) override;
  void PioWrite(std::uint16_t port, unsigned size, std::uint32_t value) override;

  // Programmatic control (used by the hypervisor, which owns this device).
  void Start(sim::PicoSeconds period);
  void Stop();

  std::uint32_t gsi() const { return gsi_; }
  std::uint64_t ticks() const { return ticks_; }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(period_, generation_, ticks_, period_lo_);
  }

 private:
  void Tick();
  void ScheduleTick();

  IrqChip* irq_;
  std::uint32_t gsi_;
  sim::EventQueue* events_;
  sim::PicoSeconds period_ = 0;
  std::uint64_t generation_ = 0;  // Invalidates stale scheduled ticks.
  std::uint64_t ticks_ = 0;
  std::uint16_t period_lo_ = 0;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::hw

#endif  // SRC_HW_TIMER_DEV_H_
