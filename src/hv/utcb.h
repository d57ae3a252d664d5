// User thread control block: the per-EC message buffer.
//
// IPC payloads are exchanged by copying words between the sender's and the
// receiver's UTCB (charged per word). For virtualization events, the UTCB
// carries the subset of architectural state selected by the portal's MTD.
#ifndef SRC_HV_UTCB_H_
#define SRC_HV_UTCB_H_

#include <array>
#include <cstdint>

#include "src/hv/types.h"

namespace nova::hv {

constexpr std::uint32_t kUtcbWords = 64;
constexpr std::uint32_t kUtcbTypedItems = 4;

// Architectural state snapshot moved on VM exits (selected by MTD).
struct ArchState {
  std::array<std::uint64_t, 8> regs{};
  std::uint64_t rip = 0;
  std::uint64_t insn_len = 16;
  bool interrupts_enabled = false;
  std::uint64_t cr3 = 0;
  std::uint64_t cr2 = 0;
  bool paging = false;
  // Exit qualification.
  std::uint64_t qual_gva = 0;
  std::uint64_t qual_gpa = 0;
  std::uint64_t qual = 0;       // Port/CR value/width/is-write packed by kernel.
  // Injection control (written by the VMM on reply).
  bool inject_pending = false;
  std::uint8_t inject_vector = 0;
  bool request_intr_window = false;
  bool halted = false;
  std::uint64_t tsc = 0;

  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(regs, rip, insn_len, interrupts_enabled, cr3, cr2, paging, qual_gva,
          qual_gpa, qual, inject_pending, inject_vector, request_intr_window,
          halted, tsc);
  }
};

// A typed item requests a resource delegation as part of a message.
struct TypedItem {
  Crd crd;                 // What the sender offers (from its spaces).
  std::uint64_t hotspot;   // Where the receiver wants it (base unit index).
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(crd, hotspot);
  }
};

struct Utcb {
  // Untyped payload.
  std::uint32_t untyped = 0;  // Number of valid words.
  std::array<std::uint64_t, kUtcbWords> words{};

  // Typed items (resource delegations riding on the message).
  std::uint32_t num_typed = 0;
  std::array<TypedItem, kUtcbTypedItems> typed{};

  // Receiver-side delegation window: delegations are only accepted into
  // this range of the receiver's space.
  Crd recv_window{};

  // Architectural state area (VM-exit messages).
  ArchState arch{};
  Mtd mtd = 0;  // Which arch groups are valid / should be written back.

  void Clear() {
    untyped = 0;
    num_typed = 0;
    mtd = 0;
  }

  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(untyped, words, num_typed, typed, recv_window, arch, mtd);
  }
};

}  // namespace nova::hv

#endif  // SRC_HV_UTCB_H_
