// Kernel-compilation workload model (§8.1, Figure 5, Table 2).
//
// Models the memory-system behaviour of `make -j4` on a cold buffer cache:
// several compiler processes, each with its own address space and working
// set, performing bursts of memory accesses with demand paging (guest page
// faults map fresh pages), periodic context switches (guest CR3 writes),
// timer interrupts, and occasional source-file reads from disk.
//
// The unit of work is one "compile unit": a compute block plus a set of
// working-set memory bursts. Relative performance across virtualization
// configurations — the quantity Figure 5 reports — emerges from how the
// configuration prices TLB misses, page faults, CR3 writes and interrupts.
#ifndef SRC_GUEST_WORKLOAD_COMPILE_H_
#define SRC_GUEST_WORKLOAD_COMPILE_H_

#include <cstdint>
#include <vector>

#include "src/guest/driver_ahci.h"
#include "src/guest/kernel.h"
#include "src/sim/rng.h"

namespace nova::guest {

class CompileWorkload {
 public:
  struct Config {
    std::uint32_t processes = 4;       // Parallel compiler jobs.
    std::uint32_t ws_pages = 384;      // Working set per process.
    std::uint64_t total_units = 3000;  // Compile units across all jobs.
    std::uint32_t compute_cycles = 30000;  // Pure computation per unit.
    std::uint32_t mem_bursts = 6;      // 4 accesses per burst per unit.
    double fresh_prob = 0.04;          // Demand-fault probability.
    std::uint32_t switch_every = 8;    // Units between context switches.
    std::uint32_t disk_every = 48;     // Units between source reads; 0=off.
    std::uint32_t recycle_every = 900;  // Units between job completions: a
                                        // fresh process (new address space,
                                        // cold working set) takes the slot.
    std::uint64_t seed = 42;
  };

  // `driver` may be null when disk_every == 0.
  CompileWorkload(GuestKernel* gk, GuestAhciDriver* driver, Config config);

  std::uint64_t EmitMain();

  bool done() const { return done_ && disk_outstanding_ == 0; }
  std::uint64_t units_done() const { return units_done_; }
  std::uint64_t page_faults_expected() const { return fresh_pages_; }
  std::uint64_t context_switches() const { return switches_; }
  std::uint64_t disk_reads() const { return disk_reads_; }

  // Full host-side workload state: the RNG stream, per-process address
  // spaces and working sets, and every progress cursor. Process count and
  // logic-slot ids are construction-time (verified).
  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Verify(static_cast<std::uint32_t>(processes_.size()));
    ar.Verify(unit_logic_);
    ar.Verify(addr_logic_);
    ar.Io(rng_);
    for (Process& p : processes_) {
      ar.Io(p.cr3);
      ar.Seq(sim::kCount32, p.touched);
    }
    ar.Io(current_, units_done_, fresh_pages_, switches_, disk_reads_,
          next_lba_, disk_outstanding_, next_fresh_page_, done_);
    // PickAddress indexes the process table by current_.
    if (current_ >= processes_.size()) {
      ar.Fail(Status::kBadParameter);
    }
  }

 private:
  struct Process {
    std::uint64_t cr3 = 0;
    std::vector<std::uint32_t> touched;  // Working-set page indices.
  };

  void UnitSetupLogic(hw::GuestState& gs);
  void AddressLogic(hw::GuestState& gs);
  std::uint64_t PickAddress();

  GuestKernel* gk_;
  GuestAhciDriver* driver_;
  Config config_;
  sim::Rng rng_;
  std::vector<Process> processes_;
  std::uint32_t current_ = 0;
  std::uint64_t units_done_ = 0;
  std::uint64_t fresh_pages_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t disk_reads_ = 0;
  std::uint64_t next_lba_ = 2048;
  std::uint32_t disk_outstanding_ = 0;
  std::uint32_t next_fresh_page_ = 0;  // Per-workload unique page index pool.
  bool done_ = false;
  std::uint32_t unit_logic_ = 0;
  std::uint32_t addr_logic_ = 0;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_WORKLOAD_COMPILE_H_
