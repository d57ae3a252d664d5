// Kernel state shared across cores, reachable only with a proof of access.
//
// Under SMP a structure that several cores touch must be reached under its
// KernelLock, whose charge prices the cross-core contention (§12 of
// DESIGN.md). `Guarded<T, L>` holds such a structure, and its one accessor
// demands a proof: the `LockToken<L>` that `Hypervisor::ChargeLock` returns
// for lock `L`, or a `SerialPhase` naming why no other core can race the
// access. A token for another lock does not convert, and only the
// Hypervisor can make a token, so the rule holds by construction.
#ifndef SRC_HV_GUARDED_H_
#define SRC_HV_GUARDED_H_

#include <cstdint>

namespace nova::hv {

class Hypervisor;

// The kernel's modelled locks.
enum class LockId : std::uint8_t {
  kSched,  // Cross-core wakeups and GSI routes.
  kMdb,    // Mapping-database delegate/revoke walks.
  kXcall,  // Cross-core IPC request slots.
};

// Proof that the caller charged lock `L`.
template <LockId L>
class LockToken {
 private:
  friend class Hypervisor;
  LockToken() = default;
};

// Why an access needs no lock: the phases in which one core runs alone,
// or in which the event loop serializes the access with every racer.
enum class SerialPhase : std::uint8_t {
  kBoot,                // Boot or platform bring-up: no other core runs.
  kUnpublishedUnwind,   // Unwinding a domain no other core has seen.
  kTeardown,            // Reclaiming a dead domain: its ECs no longer run.
  kQuiescedSnapshot,    // The machine is stopped: save, load, inspection.
  kRoutedDelivery,      // Interrupt delivery on the CPU the GSI routes to.
  // Cost-model debt: an access that should charge its lock but does not,
  // because charging it would change the SMP goldens.
  kUncharged,
};

template <class T, LockId L>
class Guarded {
 public:
  T& Get(LockToken<L>) { return value_; }
  T& Get(SerialPhase) { return value_; }

 private:
  T value_{};
};

}  // namespace nova::hv

#endif  // SRC_HV_GUARDED_H_
