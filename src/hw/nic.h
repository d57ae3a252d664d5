// Gigabit NIC model (e1000-style) with receive descriptor ring and
// interrupt coalescing, plus a token-bucket stream source.
//
// Figure 7 of the paper receives UDP streams of fixed bandwidth and packet
// size through an Intel 82567 whose interrupt coalescing caps the rate at
// roughly 20000 interrupts per second; the ITR register models exactly
// that throttle.
#ifndef SRC_HW_NIC_H_
#define SRC_HW_NIC_H_

#include <cstdint>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/iommu.h"
#include "src/hw/irq.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"

namespace nova::hw {

namespace nic {
// Register offsets (subset of the e1000 family layout).
constexpr std::uint64_t kCtrl = 0x0000;
constexpr std::uint64_t kStatus = 0x0008;
constexpr std::uint64_t kIcr = 0x00c0;   // Read-to-clear interrupt cause.
constexpr std::uint64_t kItr = 0x00c4;   // Min inter-interrupt gap, 256 ns units.
constexpr std::uint64_t kIms = 0x00d0;   // Mask set.
constexpr std::uint64_t kImc = 0x00d8;   // Mask clear.
constexpr std::uint64_t kRctl = 0x0100;
constexpr std::uint64_t kRdbal = 0x2800;
constexpr std::uint64_t kRdbah = 0x2804;
constexpr std::uint64_t kRdlen = 0x2808;
constexpr std::uint64_t kRdh = 0x2810;
constexpr std::uint64_t kRdt = 0x2818;
constexpr std::uint64_t kWindowSize = 0x3000;

constexpr std::uint32_t kRctlEnable = 1u << 1;
constexpr std::uint32_t kIcrRxt0 = 1u << 7;  // Receiver timer / packet.

// Legacy receive descriptor.
struct RxDescriptor {
  std::uint64_t buffer;
  std::uint16_t length;
  std::uint16_t checksum;
  std::uint8_t status;  // Bit 0: DD, bit 1: EOP.
  std::uint8_t errors;
  std::uint16_t special;
};
static_assert(sizeof(RxDescriptor) == 16);

constexpr std::uint8_t kRxStatusDd = 1u << 0;
constexpr std::uint8_t kRxStatusEop = 1u << 1;
}  // namespace nic

class Nic : public Device {
 public:
  Nic(DeviceId id, Iommu* iommu, IrqChip* irq, std::uint32_t gsi,
      sim::EventQueue* events);

  std::uint64_t MmioRead(std::uint64_t offset, unsigned size) override;
  void MmioWrite(std::uint64_t offset, unsigned size, std::uint64_t value) override;

  // Wire side: deliver one frame. Returns false when the ring was full
  // (frame dropped).
  bool Receive(const std::uint8_t* frame, std::uint32_t length);

  std::uint32_t gsi() const { return gsi_; }
  std::uint64_t packets_received() const { return rx_packets_.value(); }
  std::uint64_t packets_dropped() const { return rx_dropped_.value(); }
  std::uint64_t packets_corrupted() const { return rx_corrupted_.value(); }
  std::uint64_t interrupts_raised() const { return irqs_.value(); }

  // Optional fault injection (kNicDrop / kNicCorrupt on the wire side).
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  // Wires the machine's tracer in; interns the NIC's event names.
  void set_tracer(sim::Tracer* t);

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  std::uint32_t RingEntries() const { return rdlen_ / 16; }
  void RaiseOrCoalesce();
  void CoalesceExpired();
  void FireIrq();

  Iommu* iommu_;
  IrqChip* irq_;
  std::uint32_t gsi_;
  sim::EventQueue* events_;

  std::uint32_t ctrl_ = 0;
  std::uint32_t icr_ = 0;
  std::uint32_t itr_ = 0;
  std::uint32_t ims_ = 0;
  std::uint32_t rctl_ = 0;
  std::uint32_t rdbal_ = 0;
  std::uint32_t rdbah_ = 0;
  std::uint32_t rdlen_ = 0;
  std::uint32_t rdh_ = 0;
  std::uint32_t rdt_ = 0;

  bool irq_scheduled_ = false;
  sim::PicoSeconds last_irq_ = 0;
  sim::Counter rx_packets_;
  sim::Counter rx_dropped_;
  sim::Counter rx_corrupted_;
  sim::Counter irqs_;
  sim::FaultPlan* fault_plan_ = nullptr;
  sim::Tracer* tracer_ = &sim::Tracer::Disabled();
  std::uint16_t trace_rx_ = 0;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

// Generates a constant-bandwidth stream of fixed-size frames into a NIC,
// like the token-bucket traffic shaper on the paper's sender machine.
class NetLink {
 public:
  NetLink(sim::EventQueue* events, Nic* nic);

  // Start a stream of `packet_bytes`-sized frames at `mbit_per_s`.
  void StartStream(double mbit_per_s, std::uint32_t packet_bytes);
  void Stop();

  std::uint64_t packets_sent() const { return sent_.value(); }
  std::uint64_t packets_lost() const { return lost_.value(); }

  // Optional fault injection: inside a kLinkPartition window every frame
  // is dropped on the wire (the NIC never sees it); the link heals when
  // the window closes. Queried via FaultPlan::InWindow — a pure time
  // predicate, so arming a partition never perturbs RNG streams.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  // True while a partition window covers the queue's current time.
  bool Partitioned() const;

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  void SendOne();

  sim::EventQueue* events_;
  Nic* nic_;
  bool running_ = false;
  std::uint32_t packet_bytes_ = 0;
  sim::PicoSeconds interval_ = 0;
  sim::Counter sent_;
  sim::Counter lost_;
  std::uint64_t seq_ = 0;
  sim::FaultPlan* fault_plan_ = nullptr;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::hw

#endif  // SRC_HW_NIC_H_
