// Rotating-disk service model and content store.
//
// Calibrated against the evaluation's 250 GB SATA disk: sequential reads
// are limited by a fixed per-request service time for small blocks and by
// media bandwidth for large ones (the crossover near 8 KiB visible in
// Figure 6). Content is a sparse store: sectors written through the model
// read back exactly; untouched sectors return a deterministic pattern.
//
// Requests live in a pending table keyed by a stable request id; the
// completion event captures only the id, and results are delivered through
// a single registered handler. That keeps the event queue free of raw
// buffer pointers, so in-flight disk requests serialize and restore
// exactly (the snapshot-hostile closure API this replaced could not).
#ifndef SRC_HW_DISK_H_
#define SRC_HW_DISK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/fault.h"
#include "src/sim/hash_index.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/status.h"

namespace nova::hw {

constexpr std::uint64_t kSectorSize = 512;

struct DiskGeometry {
  std::uint64_t capacity_bytes = 250ull << 30;
  // Fixed per-request service time (command, rotational and NCQ overlap).
  sim::PicoSeconds request_overhead = sim::Microseconds(120);
  // Sustained media bandwidth in bytes per second.
  std::uint64_t bandwidth_bps = 67'000'000;
};

class DiskModel {
 public:
  using RequestId = std::uint64_t;

  // Completion delivery. `status` is kSuccess or kMemoryFault for an
  // unrecoverable media error (injected via the fault plan). For reads,
  // `data`/`len` expose the transferred bytes for the duration of the call
  // only — the handler copies what it needs. For writes, len == 0.
  using CompletionHandler =
      std::function<void(RequestId id, std::uint64_t cookie, Status status,
                         const std::uint8_t* data, std::uint64_t len)>;

  // `name` is the owner of the completion events' factory registration;
  // give each disk on a queue a unique name.
  DiskModel(sim::EventQueue* events, DiskGeometry geometry,
            std::string name = "hw.disk");

  // The owning controller registers exactly one handler (and registers it
  // again, identically, when constructed as a restore twin).
  void set_completion_handler(CompletionHandler h) { handler_ = std::move(h); }

  // Submit a read of `bytes` starting at byte offset `offset`. Requests
  // are serviced in order; service time is max(overhead, bytes/bandwidth)
  // once the disk becomes free (NCQ-style pipelining). `cookie` is echoed
  // to the completion handler.
  RequestId SubmitRead(std::uint64_t offset, std::uint64_t bytes,
                       std::uint64_t cookie);
  // Submit a write; the payload is copied immediately (the caller may
  // reuse its buffer).
  RequestId SubmitWrite(std::uint64_t offset, const std::uint8_t* data,
                        std::uint64_t bytes, std::uint64_t cookie);

  // Populate content directly (for installing boot images in tests).
  void WriteContent(std::uint64_t offset, const void* data, std::uint64_t bytes);
  void ReadContent(std::uint64_t offset, void* out, std::uint64_t bytes) const;

  const DiskGeometry& geometry() const { return geometry_; }
  std::uint64_t completed_requests() const { return completed_.value(); }
  std::uint64_t media_errors() const { return media_errors_.value(); }
  std::size_t pending_requests() const { return pending_.size(); }

  // Optional fault injection (kDiskMediaError). Null = no faults, no cost.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  // Serialize service-clock, written content, counters and the pending
  // request table. The completion events themselves live in the event
  // queue's snapshot; this model's factory rebuilds their closures.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct Pending {
    bool write = false;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t cookie = 0;
    std::vector<std::uint8_t> payload;  // Writes only.
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(write, offset, bytes, cookie);
      ar.Seq(sim::kCount64, payload);
    }
  };

  sim::PicoSeconds ServiceTime(std::uint64_t bytes) const;
  std::uint8_t PatternByte(std::uint64_t offset) const;
  Status MediaStatus();
  RequestId Enqueue(Pending p);
  void Fire(RequestId id);

  sim::EventQueue* events_;
  DiskGeometry geometry_;
  std::string name_;
  sim::PicoSeconds busy_until_ = 0;
  sim::HashIndex<std::uint64_t, std::vector<std::uint8_t>> sectors_;
  sim::Counter completed_;
  sim::Counter media_errors_;
  sim::FaultPlan* fault_plan_ = nullptr;
  std::map<RequestId, Pending> pending_;
  RequestId next_request_ = 1;
  CompletionHandler handler_;
  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::hw

#endif  // SRC_HW_DISK_H_
