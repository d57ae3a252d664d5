#include "src/hw/nic.h"

#include <cstring>

namespace nova::hw {

namespace {
constexpr sim::EventTag kCoalesceTag{sim::EventQueue::OwnerToken("hw.nic"),
                                     /*op=*/1};
constexpr sim::EventTag kSendTag{sim::EventQueue::OwnerToken("hw.netlink"),
                                 /*op=*/1};
}  // namespace

Nic::Nic(DeviceId id, Iommu* iommu, IrqChip* irq, std::uint32_t gsi,
         sim::EventQueue* events)
    : Device(id, "nic"), iommu_(iommu), irq_(irq), gsi_(gsi), events_(events) {
  event_owner_ = events_->RegisterOwner(kCoalesceTag.owner, [this](const sim::EventTag&) {
    return [this] { CoalesceExpired(); };
  });
}

void Nic::set_tracer(sim::Tracer* t) {
  tracer_ = t;
  trace_rx_ = t->Intern("NIC RX DMA");
}

std::uint64_t Nic::MmioRead(std::uint64_t offset, unsigned /*size*/) {
  switch (offset) {
    case nic::kCtrl: return ctrl_;
    case nic::kStatus: return 0x3;  // Link up, full duplex.
    case nic::kIcr: {
      const std::uint32_t v = icr_;
      icr_ = 0;  // Read-to-clear.
      return v;
    }
    case nic::kItr: return itr_;
    case nic::kIms: return ims_;
    case nic::kRctl: return rctl_;
    case nic::kRdbal: return rdbal_;
    case nic::kRdbah: return rdbah_;
    case nic::kRdlen: return rdlen_;
    case nic::kRdh: return rdh_;
    case nic::kRdt: return rdt_;
    default: return 0;
  }
}

void Nic::MmioWrite(std::uint64_t offset, unsigned /*size*/, std::uint64_t value) {
  const auto v = static_cast<std::uint32_t>(value);
  switch (offset) {
    case nic::kCtrl: ctrl_ = v; break;
    case nic::kItr: itr_ = v; break;
    case nic::kIms: ims_ |= v; break;
    case nic::kImc: ims_ &= ~v; break;
    case nic::kRctl: rctl_ = v; break;
    case nic::kRdbal: rdbal_ = v & ~0xfu; break;
    case nic::kRdbah: rdbah_ = v; break;
    case nic::kRdlen: rdlen_ = v & ~0x7fu; break;
    case nic::kRdh: rdh_ = v; break;
    case nic::kRdt: rdt_ = v; break;
    default: break;
  }
}

bool Nic::Receive(const std::uint8_t* frame, std::uint32_t length) {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kNicDrop, "nic")) {
    rx_dropped_.Add();  // Injected wire loss.
    return false;
  }
  std::vector<std::uint8_t> corrupted;
  if (fault_plan_ != nullptr && length > 0 &&
      fault_plan_->ShouldFault(sim::FaultKind::kNicCorrupt, "nic")) {
    // Injected bit error: flip one byte, deterministically placed.
    corrupted.assign(frame, frame + length);
    corrupted[length / 2] ^= 0xff;
    frame = corrupted.data();
    rx_corrupted_.Add();
  }
  if ((rctl_ & nic::kRctlEnable) == 0 || RingEntries() == 0) {
    rx_dropped_.Add();
    return false;
  }
  // Hardware owns descriptors [RDH, RDT); ring full when RDH == RDT.
  if (rdh_ == rdt_) {
    rx_dropped_.Add();
    return false;
  }
  const std::uint64_t ring_base =
      (static_cast<std::uint64_t>(rdbah_) << 32) | rdbal_;
  const std::uint64_t desc_addr = ring_base + rdh_ * 16ull;

  nic::RxDescriptor desc{};
  if (!Ok(iommu_->DmaRead(id(), desc_addr, &desc, sizeof(desc)))) {
    rx_dropped_.Add();
    return false;
  }
  if (!Ok(iommu_->DmaWrite(id(), desc.buffer, frame, length))) {
    rx_dropped_.Add();
    return false;
  }
  desc.length = static_cast<std::uint16_t>(length);
  desc.status = nic::kRxStatusDd | nic::kRxStatusEop;
  if (!Ok(iommu_->DmaWrite(id(), desc_addr, &desc, sizeof(desc)))) {
    rx_dropped_.Add();
    return false;
  }
  rdh_ = (rdh_ + 1) % RingEntries();
  rx_packets_.Add();
  tracer_->Instant(sim::TraceCat::kDevice, trace_rx_, length);

  icr_ |= nic::kIcrRxt0;
  RaiseOrCoalesce();
  return true;
}

void Nic::RaiseOrCoalesce() {
  if ((icr_ & ims_) == 0) {
    return;
  }
  const sim::PicoSeconds interval = static_cast<sim::PicoSeconds>(itr_) * 256 *
                                    sim::kPicosPerNano;
  const sim::PicoSeconds now = events_->now();
  if (interval == 0 || now >= last_irq_ + interval) {
    FireIrq();
    return;
  }
  if (!irq_scheduled_) {
    irq_scheduled_ = true;
    events_->ScheduleAt(last_irq_ + interval, kCoalesceTag);
  }
}

void Nic::CoalesceExpired() {
  irq_scheduled_ = false;
  if ((icr_ & ims_) != 0) {
    FireIrq();
  }
}

template <class Ar>
void Nic::Io(Ar& ar) {
  ar.Io(ctrl_, icr_, itr_, ims_, rctl_, rdbal_, rdbah_, rdlen_, rdh_, rdt_,
        irq_scheduled_, last_irq_, rx_packets_, rx_dropped_, rx_corrupted_,
        irqs_);
}

Status Nic::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status Nic::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

void Nic::FireIrq() {
  last_irq_ = events_->now();
  irqs_.Add();
  if (iommu_->GsiAllowed(id(), gsi_)) {
    irq_->Assert(gsi_);
  }
}

NetLink::NetLink(sim::EventQueue* events, Nic* nic)
    : events_(events), nic_(nic) {
  event_owner_ = events_->RegisterOwner(kSendTag.owner, [this](const sim::EventTag&) {
    return [this] { SendOne(); };
  });
}

void NetLink::StartStream(double mbit_per_s, std::uint32_t packet_bytes) {
  running_ = true;
  packet_bytes_ = packet_bytes;
  const double bits_per_packet = packet_bytes * 8.0;
  const double packets_per_second = mbit_per_s * 1e6 / bits_per_packet;
  interval_ = static_cast<sim::PicoSeconds>(1e12 / packets_per_second);
  events_->ScheduleAfter(interval_, kSendTag);
}

void NetLink::Stop() { running_ = false; }

bool NetLink::Partitioned() const {
  return fault_plan_ != nullptr &&
         fault_plan_->InWindow(sim::FaultKind::kLinkPartition, "netlink",
                               events_->now());
}

void NetLink::SendOne() {
  if (!running_) {
    return;
  }
  if (Partitioned()) {
    // Partition window: the frame is lost on the wire; the receiver never
    // sees it. Keep the clock ticking so the link resumes when it heals.
    ++seq_;
    sent_.Add();
    lost_.Add();
  } else {
    std::vector<std::uint8_t> frame(packet_bytes_);
    // Ethernet-ish header + sequence number + pattern payload.
    std::memset(frame.data(), 0xee, std::min<std::size_t>(frame.size(), 14));
    if (frame.size() >= 22) {
      std::memcpy(frame.data() + 14, &seq_, 8);
    }
    for (std::size_t i = 22; i < frame.size(); ++i) {
      frame[i] = static_cast<std::uint8_t>(seq_ + i);
    }
    ++seq_;
    nic_->Receive(frame.data(), packet_bytes_);
    sent_.Add();
  }
  events_->ScheduleAfter(interval_, kSendTag);
}

template <class Ar>
void NetLink::Io(Ar& ar) {
  ar.Io(running_, packet_bytes_, interval_, seq_, sent_, lost_);
}

Status NetLink::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status NetLink::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hw
