#include "src/vmm/vpit.h"

namespace nova::vmm {

VPit::VPit(sim::EventQueue* events, VPic* vpic, std::uint64_t owner)
    : DeviceModel("vpit"), events_(events), vpic_(vpic), owner_(owner) {
  events_->RegisterOwner(
      owner_, [this](const sim::EventTag& tag) -> sim::EventQueue::Callback {
        if (tag.op != 1) {
          return nullptr;
        }
        const std::uint64_t gen = tag.a;
        return [this, gen] {
          if (gen == generation_) {
            Tick();
          }
        };
      });
}

VPit::~VPit() { events_->Unregister(owner_); }

std::uint32_t VPit::PioRead(std::uint16_t port) {
  switch (port) {
    case vpit::kPortPeriodLo:
      return static_cast<std::uint32_t>((period_ / sim::kPicosPerMicro) & 0xffff);
    case vpit::kPortPeriodHi:
      return static_cast<std::uint32_t>((period_ / sim::kPicosPerMicro) >> 16);
    case vpit::kPortControl:
      return period_ != 0 ? 1 : 0;
    default:
      return ~0u;
  }
}

void VPit::PioWrite(std::uint16_t port, std::uint32_t value) {
  switch (port) {
    case vpit::kPortPeriodLo:
      period_lo_ = static_cast<std::uint16_t>(value);
      break;
    case vpit::kPortPeriodHi: {
      const std::uint32_t micros = (value << 16) | period_lo_;
      period_ = sim::Microseconds(micros);
      ++generation_;
      if (period_ != 0) {
        Arm();
      }
      break;
    }
    case vpit::kPortControl:
      if (value == 0) {
        period_ = 0;
        ++generation_;
      }
      break;
    default:
      break;
  }
}

void VPit::Arm() {
  events_->ScheduleAfter(period_, sim::EventTag{owner_, /*op=*/1, generation_});
}

void VPit::Tick() {
  ++ticks_;
  vpic_->Raise(vpit::kVector);
  Arm();
}

template <class Ar>
void VPit::Io(Ar& ar) {
  ar.Io(period_, period_lo_, generation_, ticks_);
}

Status VPit::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status VPit::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::vmm
