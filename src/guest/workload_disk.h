// Sequential direct-I/O disk read workload (§8.2, Figure 6).
//
// Issues back-to-back reads of a fixed block size, halting between issue
// and completion — the direct-I/O pattern that makes CPU utilization per
// request visible.
#ifndef SRC_GUEST_WORKLOAD_DISK_H_
#define SRC_GUEST_WORKLOAD_DISK_H_

#include <cstdint>

#include "src/guest/driver_ahci.h"
#include "src/guest/kernel.h"

namespace nova::guest {

class DiskWorkload {
 public:
  struct Config {
    std::uint32_t block_bytes = 4096;
    std::uint64_t total_requests = 1000;
  };

  DiskWorkload(GuestKernel* gk, GuestAhciDriver* driver, Config config);

  // Emit the workload main routine; returns its entry address. The caller
  // passes it to GuestKernel::EmitBoot.
  std::uint64_t EmitMain();

  bool done() const { return done_; }
  std::uint64_t completed() const { return completed_; }

 private:
  void NextRequestLogic(hw::GuestState& gs);
  void CheckLogic(hw::GuestState& gs);

  GuestKernel* gk_;
  GuestAhciDriver* driver_;
  Config config_;
  std::uint32_t next_logic_ = 0;
  std::uint32_t check_logic_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t next_lba_ = 0;
  bool outstanding_ = false;
  bool done_ = false;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_WORKLOAD_DISK_H_
