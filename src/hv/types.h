// Core microhypervisor types: capability selectors, capability range
// descriptors (CRDs), message transfer descriptors (MTDs), VM-exit event
// numbering and the software-path cost model.
#ifndef SRC_HV_TYPES_H_
#define SRC_HV_TYPES_H_

#include <cstdint>

#include "src/sim/time.h"

namespace nova::hv {

// Capability selector: an index into a protection domain's capability
// space, analogous to a Unix file descriptor (§5 of the paper).
using CapSel = std::uint32_t;
constexpr CapSel kInvalidSel = ~0u;
constexpr std::uint32_t kCapSpaceSlots = 4096;

// Permission bits carried by object capabilities. Interpretation is
// object-type specific; a delegation may only narrow them.
namespace perm {
constexpr std::uint8_t kCtrl = 1u << 0;    // Destroy / reconfigure.
constexpr std::uint8_t kCall = 1u << 1;    // Portal: may call.
constexpr std::uint8_t kDelegate = 1u << 2;  // May re-delegate.
constexpr std::uint8_t kSmUp = 1u << 3;    // Semaphore up.
constexpr std::uint8_t kSmDown = 1u << 4;  // Semaphore down.
constexpr std::uint8_t kAll = 0x1f;
// Memory rights (CRD perms for kMem).
constexpr std::uint8_t kRead = 1u << 0;
constexpr std::uint8_t kWrite = 1u << 1;
constexpr std::uint8_t kExec = 1u << 2;
constexpr std::uint8_t kRw = kRead | kWrite;
constexpr std::uint8_t kRwx = kRw | kExec;
}  // namespace perm

// Capability range descriptor: names a range of one of the three spaces a
// protection domain owns. `base` is in pages (kMem), ports (kIo) or
// selectors (kObj); the range covers 2^order units.
enum class CrdKind : std::uint8_t { kNull = 0, kMem, kIo, kObj };

struct Crd {
  CrdKind kind = CrdKind::kNull;
  std::uint64_t base = 0;
  std::uint8_t order = 0;
  std::uint8_t perms = 0;

  std::uint64_t count() const { return 1ull << order; }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(kind, base, order, perms);
  }
  static Crd Mem(std::uint64_t page, std::uint8_t order, std::uint8_t perms) {
    return Crd{CrdKind::kMem, page, order, perms};
  }
  static Crd Io(std::uint64_t port, std::uint8_t order) {
    return Crd{CrdKind::kIo, port, order, perm::kAll};
  }
  static Crd Obj(CapSel sel, std::uint8_t order, std::uint8_t perms) {
    return Crd{CrdKind::kObj, sel, order, perms};
  }
};

// Message transfer descriptor: selects which groups of architectural state
// the hypervisor moves between a virtual CPU and a VMM's UTCB. Portals
// store an MTD so that each event type transfers only what its handler
// needs — the paper's VMCS-access optimization (§5.2).
using Mtd = std::uint32_t;
namespace mtd {
constexpr Mtd kGprAcdb = 1u << 0;   // regs[0..3]          (4 words)
constexpr Mtd kGprBsd = 1u << 1;    // regs[4..7]          (4 words)
constexpr Mtd kRip = 1u << 2;       // rip, insn length    (2 words)
constexpr Mtd kRflags = 1u << 3;    // IF                  (1 word)
constexpr Mtd kCr = 1u << 4;        // cr3, cr2, paging    (3 words)
constexpr Mtd kQual = 1u << 5;      // exit qualification  (3 words)
constexpr Mtd kInj = 1u << 6;       // injection state     (2 words)
constexpr Mtd kSta = 1u << 7;       // halted, recall      (1 word)
constexpr Mtd kTsc = 1u << 8;       // cycle counter       (1 word)
constexpr Mtd kTlbFlush = 1u << 9;  // Reply-only: flush guest TLB (0 words)
constexpr Mtd kAll = 0x3ff;

// Number of state words a given MTD moves (copy cost) and the number of
// VMCS fields it touches (VMREAD/VMWRITE cost).
int WordCount(Mtd m);
int FieldCount(Mtd m);
}  // namespace mtd

// VM-exit event numbering: the portal index (relative to the VM's event
// base) that each exit type is dispatched to.
enum class Event : std::uint8_t {
  kPio = 0,
  kCpuid = 1,
  kHlt = 2,
  kMovCr = 3,
  kInvlpg = 4,
  kMmio = 5,         // EPT violation / shadow host-side fault.
  kIntrWindow = 6,
  kRecall = 7,
  kVmcall = 8,
  kError = 9,
  kCount = 10,
};
constexpr std::uint32_t kNumEvents = static_cast<std::uint32_t>(Event::kCount);

// Cycle prices of the hypervisor's software paths. These are *unit* costs:
// total path cost emerges from the operations a path actually performs
// (lookups, map updates, copied words), so the figures of the paper come
// out of executed work, not hard-wired totals.
struct HvCosts {
  sim::Cycles hypercall_dispatch = 10;
  sim::Cycles cap_lookup = 14;
  sim::Cycles portal_traversal = 28;
  sim::Cycles context_switch = 26;     // Same address space.
  sim::Cycles addr_space_switch = 30;  // Page-table root write.
  sim::Cycles reply_path = 20;
  sim::Cycles sched_pick = 42;
  sim::Cycles sm_op = 24;
  sim::Cycles irq_ack = 90;            // Mask + ack at the interrupt chip.
  sim::Cycles map_page = 28;           // One page-table update.
  sim::Cycles mdb_node = 60;           // Mapping-database bookkeeping.
  sim::Cycles vtlb_fill_base = 46;     // Fill overhead beyond the walks.
  sim::Cycles recall_ipi = 180;        // Cross-CPU kick.
  // SMP paths (charged only when the machine has more than one core).
  sim::Cycles xcall_send = 150;        // Cross-core IPC: IPI + request post.
  sim::Cycles xcall_receive = 320;     // Remote core: interrupt + pickup.
  sim::Cycles shootdown_ipi = 150;     // TLB shootdown: initiator, per target.
  sim::Cycles shootdown_ack = 220;     // TLB shootdown: target flush + ack.
  sim::Cycles lock_contention = 80;    // Contended spinlock acquire.
  sim::Cycles lock_hold = 60;          // Window a kernel lock stays hot.
  // Host-TLB refill estimate after an address-space switch: the "TLB
  // effects" box of Figure 8. Untagged host ASes re-walk their hot
  // working set after every switch.
  std::uint32_t ipc_refill_entries = 2;
};

}  // namespace nova::hv

#endif  // SRC_HV_TYPES_H_
