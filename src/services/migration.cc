#include "src/services/migration.h"

#include "src/hv/dirty_log.h"
#include "src/hv/kernel.h"

namespace nova::services {

MigrationDriver::MigrationDriver(Endpoints ep, MigrationConfig config)
    : ep_(std::move(ep)), config_(config) {}

sim::PicoSeconds MigrationDriver::TransferTime(std::uint64_t bytes) const {
  // bandwidth_mbps is decimal megabits; one byte takes 8e6/bw picoseconds.
  const double ps_per_byte = 8.0e6 / config_.bandwidth_mbps;
  return static_cast<sim::PicoSeconds>(static_cast<double>(bytes) *
                                       ps_per_byte) +
         kRoundLatencyPs;
}

bool MigrationDriver::LinkDown(MigrationResult* result) {
  if (ep_.link == nullptr || !ep_.link->Partitioned()) {
    return false;
  }
  ++result->retries;
  // The source was never stopped (or has just been resumed): it keeps
  // making progress while the driver waits out the backoff.
  ep_.run_source(config_.retry_backoff_ps);
  return true;
}

MigrationResult MigrationDriver::Run() {
  MigrationResult result;
  hv::DirtyLog log(ep_.source_hv, ep_.source_vm_pd);
  log.Arm();

  // --- Iterative pre-copy: the guest runs throughout. -------------------
  std::uint64_t pending_pages = ep_.guest_pages;  // Round 0: everything.
  bool cutoff = false;
  while (!cutoff) {
    if (result.retries > config_.retry_max) {
      log.Disarm();
      return result;  // Unreachable target: the VM stays at the source.
    }
    if (LinkDown(&result)) {
      continue;  // Dirty pages accumulate; retry the same round.
    }
    const std::uint64_t bytes = pending_pages * hw::kPageSize;
    ep_.run_source(TransferTime(bytes));
    result.bytes_sent += bytes;
    result.total_ps += TransferTime(bytes);
    result.precopy_pages += pending_pages;
    result.round_pages.push_back(pending_pages);
    ++result.rounds;

    std::vector<std::uint64_t> dirty;
    log.CollectAndReset(&dirty);
    pending_pages = dirty.size();
    // Cut over when the dirty set is small enough to eat as downtime, or
    // when further rounds cannot pay for themselves.
    cutoff = pending_pages <= config_.stop_copy_threshold_pages ||
             result.rounds >= config_.max_rounds;
  }

  // --- Stop-and-copy: source stopped, residual dirty set + state. -------
  log.Disarm();
  for (;;) {
    if (result.retries > config_.retry_max) {
      return result;  // Source resumes; nothing was torn down.
    }
    if (!LinkDown(&result)) {
      break;
    }
    // The backoff ran the source with the log disarmed; re-collect what it
    // dirtied by re-arming for the retry window is unnecessary — kAssist
    // observes continuously until Disarm, and the final snapshot below
    // carries full RAM regardless, so correctness never depends on the
    // residual dirty set.
  }
  sim::Snapshot snap;
  if (ep_.save(snap) != Status::kSuccess) {
    return result;
  }
  result.snapshot_bytes = snap.PayloadBytes();
  const std::uint64_t stop_bytes =
      pending_pages * hw::kPageSize + result.snapshot_bytes;
  result.stop_copy_pages = pending_pages;
  result.bytes_sent += stop_bytes;
  result.downtime_ps = TransferTime(stop_bytes);
  result.total_ps += result.downtime_ps;
  if (ep_.load(snap) != Status::kSuccess) {
    return result;  // Target rejected the state: VM continues at source.
  }
  result.success = true;
  return result;
}

}  // namespace nova::services
