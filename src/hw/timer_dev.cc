#include "src/hw/timer_dev.h"

namespace nova::hw {

std::uint32_t PlatformTimer::PioRead(std::uint16_t port, unsigned /*size*/) {
  switch (port) {
    case timer::kPortPeriodLo:
      return static_cast<std::uint32_t>((period_ / sim::kPicosPerMicro) & 0xffff);
    case timer::kPortPeriodHi:
      return static_cast<std::uint32_t>((period_ / sim::kPicosPerMicro) >> 16);
    case timer::kPortControl:
      return period_ != 0 ? 1 : 0;
    default:
      return 0xffffffffu;
  }
}

void PlatformTimer::PioWrite(std::uint16_t port, unsigned /*size*/, std::uint32_t value) {
  switch (port) {
    case timer::kPortPeriodLo:
      period_lo_ = static_cast<std::uint16_t>(value);
      break;
    case timer::kPortPeriodHi: {
      const std::uint32_t micros = (value << 16) | period_lo_;
      (void)Start(sim::Microseconds(micros));
      break;
    }
    case timer::kPortControl:
      if (value == 0) {
        Stop();
      }
      break;
    default:
      break;
  }
}

void PlatformTimer::ScheduleTick() {
  events_->ScheduleAfter(
      period_, sim::EventTag{sim::EventQueue::OwnerToken("hw.timer"),
                             /*op=*/1, generation_});
}

void PlatformTimer::Start(sim::PicoSeconds period) {
  period_ = period;
  ++generation_;
  ScheduleTick();
}

void PlatformTimer::Stop() {
  period_ = 0;
  ++generation_;
}

void PlatformTimer::Tick() {
  ++ticks_;
  irq_->Assert(gsi_);
  ScheduleTick();
}

}  // namespace nova::hw
