#include "src/guest/workload_disk.h"

namespace nova::guest {

DiskWorkload::DiskWorkload(GuestKernel* gk, GuestAhciDriver* driver, Config config)
    : gk_(gk), driver_(driver), config_(config) {
  next_logic_ =
      gk_->mux().Register([this](hw::GuestState& gs) { NextRequestLogic(gs); });
  check_logic_ = gk_->mux().Register([this](hw::GuestState& gs) { CheckLogic(gs); });
}

void DiskWorkload::NextRequestLogic(hw::GuestState& gs) {
  if (issued_ >= config_.total_requests) {
    gs.regs[7] = 1;  // Finished.
    done_ = completed_ >= config_.total_requests;
    return;
  }
  gs.regs[7] = 0;
  gs.regs[1] = next_lba_;                                   // LBA.
  gs.regs[2] = config_.block_bytes / hw::kSectorSize;       // Sectors.
  gs.regs[3] = GuestLayout::kDmaBase;                       // DMA buffer.
  next_lba_ += config_.block_bytes / hw::kSectorSize;       // Sequential.
  ++issued_;
  outstanding_ = true;
}

void DiskWorkload::CheckLogic(hw::GuestState& gs) {
  gs.regs[0] = outstanding_ ? 0 : 1;
}

std::uint64_t DiskWorkload::EmitMain() {
  hw::isa::Assembler& as = gk_->text();

  // Completion ISR: mark the request finished.
  driver_->EmitIsr([this](int completed) {
    completed_ += completed;
    outstanding_ = false;
    if (completed_ >= config_.total_requests) {
      done_ = true;
    }
  });

  const std::uint64_t main = as.Here();
  driver_->EmitInit();

  const std::uint64_t loop = as.Here();
  as.GuestLogic(next_logic_);  // r1=lba r2=sectors r3=buffer, r7=finished.
  const std::uint64_t jnz_finish = as.Jnz(7, 0);
  as.NopBlock(9500);  // Application + kernel block layer (syscall, VFS,
                     // block, SCSI midlayer) on the submission side.
  driver_->EmitIssueSequence();

  // Wait for the completion interrupt (direct I/O blocks the caller).
  const std::uint64_t wait = as.Here();
  as.GuestLogic(check_logic_);
  const std::uint64_t jnz_next = as.Jnz(0, 0);
  as.Sti();
  as.Hlt();
  as.Jmp(wait);
  as.PatchImm64(jnz_next, as.Here());
  as.NopBlock(6500);  // Completion side of the block stack + copyout.
  as.Jmp(loop);

  const std::uint64_t finish = gk_->EmitIdleLoop();
  as.PatchImm64(jnz_finish, finish);
  return main;
}

}  // namespace nova::guest
