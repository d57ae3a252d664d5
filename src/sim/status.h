// Status codes used across the NOVA reproduction.
//
// Modelled after the return convention of the original NOVA hypercall
// interface: a small enum returned from every fallible kernel operation.
#ifndef SRC_SIM_STATUS_H_
#define SRC_SIM_STATUS_H_

#include <cstdint>

namespace nova {

// Result of a hypercall or internal kernel operation. The enum itself is
// [[nodiscard]]: every function returning a Status inherits the
// must-check contract, and every target builds with
// -Werror=unused-result, so a silently dropped error fails compilation
// (tests/compile_fail/discarded_result.cc). Discard on purpose with a
// (void) cast and a reason.
enum class [[nodiscard]] Status : std::uint8_t {
  kSuccess = 0,     // Operation completed.
  kTimeout,         // Operation timed out (blocking IPC / semaphore).
  kAbort,           // Operation aborted by a third party.
  kBadHypercall,    // Unknown hypercall number.
  kBadCapability,   // Capability selector is empty or has wrong type/perms.
  kBadParameter,    // Malformed argument (alignment, range, flags).
  kBadFeature,      // Feature not supported by this CPU/platform.
  kBadCpu,          // Operation targets an invalid or offline CPU.
  kBadDevice,       // Device id is unknown to the IOMMU.
  kMemoryFault,     // Physical address out of range or unmapped.
  kOverflow,        // Resource exhausted (space full, quota reached).
  kDenied,          // Permission check failed.
  kBusy,            // Object is in use and cannot be reconfigured.
  kNoMem,           // Kernel-memory quota or frame pool exhausted.
};

// Keep in sync when appending codes; the enum-coverage test walks
// [0, kNumStatuses) and fails if StatusName lags behind.
constexpr int kNumStatuses = static_cast<int>(Status::kNoMem) + 1;

// Human-readable name for diagnostics and test output.
constexpr const char* StatusName(Status s) {
  switch (s) {
    case Status::kSuccess: return "kSuccess";
    case Status::kTimeout: return "kTimeout";
    case Status::kAbort: return "kAbort";
    case Status::kBadHypercall: return "kBadHypercall";
    case Status::kBadCapability: return "kBadCapability";
    case Status::kBadParameter: return "kBadParameter";
    case Status::kBadFeature: return "kBadFeature";
    case Status::kBadCpu: return "kBadCpu";
    case Status::kBadDevice: return "kBadDevice";
    case Status::kMemoryFault: return "kMemoryFault";
    case Status::kOverflow: return "kOverflow";
    case Status::kDenied: return "kDenied";
    case Status::kBusy: return "kBusy";
    case Status::kNoMem: return "kNoMem";
  }
  return "kUnknown";
}

constexpr bool Ok(Status s) { return s == Status::kSuccess; }

}  // namespace nova

#endif  // SRC_SIM_STATUS_H_
