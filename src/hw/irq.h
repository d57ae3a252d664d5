// Platform interrupt fabric.
//
// Models an IOAPIC-style chip: devices assert global system interrupts
// (GSIs); the chip routes each enabled GSI to a destination CPU as a
// vector. Delivery is edge-style with a per-GSI mask bit — the
// microhypervisor masks a GSI on arrival and the user-level driver unmasks
// it after handling, exactly the flow the paper's drivers use.
#ifndef SRC_HW_IRQ_H_
#define SRC_HW_IRQ_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace nova::hw {

constexpr std::uint32_t kNumGsis = 64;
constexpr std::uint32_t kMaxCpus = 8;

class IrqChip {
 public:
  // Interns its event names in `tracer`, which it emits them to.
  explicit IrqChip(sim::Tracer& tracer);

  struct Route {
    bool enabled = false;
    bool masked = true;
    std::uint32_t cpu = 0;
    std::uint8_t vector = 0;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(enabled, masked, cpu, vector);
      // Delivery indexes the pending rows by `cpu`; Configure sets no other.
      if (cpu >= kMaxCpus) {
        ar.Fail(Status::kBadParameter);
      }
    }
  };

  // Configuration (done by the microhypervisor).
  void Configure(std::uint32_t gsi, std::uint32_t cpu, std::uint8_t vector);
  void Mask(std::uint32_t gsi);
  void Unmask(std::uint32_t gsi);
  const Route& route(std::uint32_t gsi) const { return routes_[gsi]; }

  // Device side: assert a GSI (edge). If the route is enabled and unmasked,
  // the interrupt becomes pending at the destination CPU; a masked GSI
  // stays latched and fires on unmask.
  void Assert(std::uint32_t gsi);

  // CPU side: highest pending vector for `cpu`, if any.
  std::optional<std::uint8_t> PendingVector(std::uint32_t cpu) const;
  // Snapshot of all pending vectors (highest first) without consuming.
  std::vector<std::uint8_t> PendingVectors(std::uint32_t cpu) const;
  // Acknowledge (consume) a pending vector on `cpu`.
  void Acknowledge(std::uint32_t cpu, std::uint8_t vector);
  bool HasPending(std::uint32_t cpu) const;

  std::uint64_t asserted(std::uint32_t gsi) const { return assert_counts_[gsi]; }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(routes_, latched_, pending_, assert_counts_);
  }

 private:
  void Deliver(std::uint32_t gsi);

  sim::Tracer& tracer_;
  const std::uint16_t trace_assert_;
  const std::uint16_t trace_deliver_;
  std::array<Route, kNumGsis> routes_{};
  std::array<bool, kNumGsis> latched_{};
  // Per-CPU pending vector bitmap (256 vectors).
  std::array<std::array<std::uint64_t, 4>, kMaxCpus> pending_{};
  std::array<std::uint64_t, kNumGsis> assert_counts_{};
};

}  // namespace nova::hw

#endif  // SRC_HW_IRQ_H_
