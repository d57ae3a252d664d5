// Host-time probes of single hw-layer operations, timed after a run on that
// run's machine state. They run only in the traced run, after every
// simulated statistic has been read: TLB probes change the TLB's contents
// and counters.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>

#include "harness.h"
#include "src/hw/cpu.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"

namespace nova::perfbench {

struct HwProbeNs {
  double physmem_read = 0;   // PhysMem::Read of 8 bytes from a resident frame.
  double tlb_lookup = 0;     // Tlb::Lookup of a translation the TLB holds.
  double tlb_insert_evict = 0;  // Tlb::Insert into a full TLB (one eviction).
  double pt_walk = 0;        // PageTable::Walk of the VM's host table.
  // Set when a probe cannot measure what it names: the frame or TLB entry
  // list read back from SaveState is empty, or the lookups missed.
  std::string error;
};

// `guest_pages` bounds the walked guest-physical range; `seed` picks the
// sampled addresses.
HwProbeNs ProbeHw(hw::PhysMem& mem, hw::Cpu& cpu, const hw::PageTable& host_pt,
                  std::uint64_t guest_pages, std::uint64_t seed,
                  HostTrace& trace);

}  // namespace nova::perfbench

#endif  // PERFBENCH_PROBES_H_
