#include "src/hw/irq.h"

namespace nova::hw {

IrqChip::IrqChip(sim::Tracer& tracer)
    : tracer_(tracer), trace_assert_(tracer.Intern("IRQ Assert")),
      trace_deliver_(tracer.Intern("IRQ Deliver")) {}

void IrqChip::Configure(std::uint32_t gsi, std::uint32_t cpu, std::uint8_t vector) {
  if (gsi >= kNumGsis || cpu >= kMaxCpus) {
    return;
  }
  routes_[gsi] = Route{.enabled = true, .masked = true, .cpu = cpu, .vector = vector};
}

void IrqChip::Mask(std::uint32_t gsi) {
  if (gsi < kNumGsis) {
    routes_[gsi].masked = true;
  }
}

void IrqChip::Unmask(std::uint32_t gsi) {
  if (gsi >= kNumGsis) {
    return;
  }
  routes_[gsi].masked = false;
  if (latched_[gsi]) {
    latched_[gsi] = false;
    Deliver(gsi);
  }
}

void IrqChip::Assert(std::uint32_t gsi) {
  if (gsi >= kNumGsis) {
    return;
  }
  ++assert_counts_[gsi];
  tracer_.Instant(sim::TraceCat::kIrq, trace_assert_, gsi);
  const Route& r = routes_[gsi];
  if (!r.enabled) {
    return;  // Unrouted interrupts are dropped.
  }
  if (r.masked) {
    latched_[gsi] = true;
    return;
  }
  Deliver(gsi);
}

void IrqChip::Deliver(std::uint32_t gsi) {
  const Route& r = routes_[gsi];
  tracer_.Instant(sim::TraceCat::kIrq, trace_deliver_, gsi, r.vector);
  pending_[r.cpu][r.vector / 64] |= 1ull << (r.vector % 64);
}

std::optional<std::uint8_t> IrqChip::PendingVector(std::uint32_t cpu) const {
  if (cpu >= kMaxCpus) {
    return std::nullopt;
  }
  // Highest vector has highest priority, like the x86 local APIC.
  for (int word = 3; word >= 0; --word) {
    const std::uint64_t bits = pending_[cpu][word];
    if (bits != 0) {
      const int bit = 63 - __builtin_clzll(bits);
      return static_cast<std::uint8_t>(word * 64 + bit);
    }
  }
  return std::nullopt;
}

std::vector<std::uint8_t> IrqChip::PendingVectors(std::uint32_t cpu) const {
  std::vector<std::uint8_t> out;
  if (cpu >= kMaxCpus) {
    return out;
  }
  for (int word = 3; word >= 0; --word) {
    std::uint64_t bits = pending_[cpu][word];
    while (bits != 0) {
      const int bit = 63 - __builtin_clzll(bits);
      out.push_back(static_cast<std::uint8_t>(word * 64 + bit));
      bits &= ~(1ull << bit);
    }
  }
  return out;
}

void IrqChip::Acknowledge(std::uint32_t cpu, std::uint8_t vector) {
  if (cpu >= kMaxCpus) {
    return;
  }
  pending_[cpu][vector / 64] &= ~(1ull << (vector % 64));
}

bool IrqChip::HasPending(std::uint32_t cpu) const {
  if (cpu >= kMaxCpus) {
    return false;
  }
  for (const std::uint64_t word : pending_[cpu]) {
    if (word != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace nova::hw
