// Digest-verified live migration: iterative pre-copy over a network link.
//
// The driver moves a running VM between two co-simulated nodes. It is the
// classic pre-copy algorithm:
//
//   round 0    transfer every guest page while the guest keeps running;
//   round i    transfer the pages dirtied during round i-1 (collected from
//              a hv::DirtyLog armed on the VM's protection domain);
//   cutoff     when the dirty set stops shrinking below the threshold (or
//              the round budget is exhausted), stop the source, transfer
//              the final dirty pages plus the machine-state snapshot, and
//              resume on the target.
//
// Transfer timing is analytic — bytes over a fixed-bandwidth link plus a
// per-round latency — while the *content* moves via the snapshot: the
// stop-and-copy snapshot carries guest RAM and all device/kernel state,
// so the target resumes bit-exactly (the round-trip tests compare trace
// digests against an unmigrated run).
//
// Link failure: when the source's link reports a partition (FaultPlan
// kLinkPartition window) at a transfer point, the transfer aborts, the
// source keeps running (it was never stopped mid-round; an aborted
// stop-and-copy resumes it), and the driver retries after a backoff,
// bounded by `retry_max` — after which the migration fails and the VM
// simply continues at the source. A failed migration must never harm the
// workload: that is the robustness property ext_migrate measures.
#ifndef SRC_SERVICES_MIGRATION_H_
#define SRC_SERVICES_MIGRATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/nic.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace nova::hv {
class Hypervisor;
class Pd;
}  // namespace nova::hv

namespace nova::services {

// Fixed latency every transfer pays on top of its bytes over the link.
constexpr sim::PicoSeconds kRoundLatencyPs = sim::Microseconds(100);

struct MigrationConfig {
  double bandwidth_mbps = 1000;          // Migration link (the paper's GigE).
  std::uint32_t max_rounds = 8;          // Pre-copy rounds before cutoff.
  std::uint64_t stop_copy_threshold_pages = 64;
  std::uint32_t retry_max = 3;           // Partition retries before giving up.
  sim::PicoSeconds retry_backoff_ps = sim::Milliseconds(2);
};

struct MigrationResult {
  bool success = false;
  std::uint32_t rounds = 0;              // Pre-copy rounds actually run.
  std::uint32_t retries = 0;             // Partition-aborted transfers.
  std::uint64_t precopy_pages = 0;       // Pages sent while running.
  std::uint64_t stop_copy_pages = 0;     // Pages sent during downtime.
  std::uint64_t bytes_sent = 0;          // Total wire bytes (incl. retries).
  std::uint64_t snapshot_bytes = 0;      // Device/kernel state payload.
  sim::PicoSeconds total_ps = 0;         // First byte to target resume.
  sim::PicoSeconds downtime_ps = 0;      // Source stopped -> target running.
  std::vector<std::uint64_t> round_pages;  // Dirty set per round.
};

class MigrationDriver {
 public:
  // The two nodes are independent simulations; the driver coordinates them
  // through these hooks so it depends on neither the bench harness nor any
  // particular scenario shape.
  struct Endpoints {
    hv::Hypervisor* source_hv = nullptr;
    hv::Pd* source_vm_pd = nullptr;      // Dirty-tracking target.
    hw::NetLink* link = nullptr;         // Partition predicate (may be null).
    std::uint64_t guest_pages = 0;       // Round-0 full-copy size.
    // Advance the source node by dt of simulated time (guest keeps
    // dirtying pages during pre-copy rounds).
    std::function<void(sim::PicoSeconds)> run_source;
    // Stop-and-copy state capture / target restore. `load` returning
    // non-success is a target-side failure: the source resumes.
    std::function<Status(sim::Snapshot&)> save;
    std::function<Status(sim::Snapshot&)> load;
  };

  MigrationDriver(Endpoints ep, MigrationConfig config);

  // Run the whole migration to completion (or bounded failure).
  MigrationResult Run();

 private:
  sim::PicoSeconds TransferTime(std::uint64_t bytes) const;
  // True when the link is partitioned at the current source time; counts
  // a retry and burns the backoff (source keeps running) when so.
  bool LinkDown(MigrationResult* result);

  Endpoints ep_;
  MigrationConfig config_;
};

}  // namespace nova::services

#endif  // SRC_SERVICES_MIGRATION_H_
