#include "src/guest/driver_ahci.h"

#include <cstring>

namespace nova::guest {

GuestAhciDriver::GuestAhciDriver(GuestKernel* gk, Config config)
    : gk_(gk), config_(std::move(config)) {
  prepare_logic_ =
      gk_->mux().Register([this](hw::GuestState& gs) { PrepareLogic(gs); });
  completion_logic_ =
      gk_->mux().Register([this](hw::GuestState& gs) { CompletionLogic(gs); });
  gk_->MapDevice(gk_->kernel_cr3(), config_.mmio_base, hw::kPageSize);
}

void GuestAhciDriver::EmitInit() {
  hw::isa::Assembler& as = gk_->text();
  as.MovImm(1, hw::ahci::kGhcIntrEnable);
  as.Store(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kGhc);
  as.MovImm(1, GuestLayout::kAhciCmdBase);
  as.Store(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxClb);
  as.MovImm(1, config_.handle_errors ? (hw::ahci::kPxIsDhrs | hw::ahci::kPxIsTfes)
                                     : hw::ahci::kPxIsDhrs);
  as.Store(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxIe);
  as.MovImm(1, hw::ahci::kPxCmdStart);
  as.Store(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxCmd);
}

void GuestAhciDriver::PrepareLogic(hw::GuestState& gs) {
  // Driver submission path: pick a free slot and build the command list
  // entry, command FIS and PRDT in the driver's own (guest) memory. These
  // are ordinary guest RAM writes; their cost is charged by the NopBlock
  // the emitter places next to this logic op.
  const std::uint64_t lba = gs.regs[1];
  const std::uint64_t sectors = gs.regs[2];
  const std::uint64_t buffer_gpa = gs.regs[3];

  int slot = -1;
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if ((issued_mask_ & (1u << s)) == 0) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    gs.regs[4] = 0;  // No free slot: the emitted code retries.
    return;
  }

  // Command header.
  std::uint8_t header[32] = {};
  const std::uint32_t dw0 = 1u << 16;  // One PRDT entry, read.
  std::memcpy(header, &dw0, 4);
  const auto ctba =
      static_cast<std::uint32_t>(GuestLayout::kAhciCmdBase + 0x400 + slot * 0x100);
  std::memcpy(header + 8, &ctba, 4);
  gk_->WriteGuestRaw(GuestLayout::kAhciCmdBase + slot * 32ull, header, sizeof(header));

  // Command FIS + PRDT.
  std::uint8_t table[0x90] = {};
  table[0] = hw::ahci::kFisH2d;
  table[2] = hw::ahci::kCmdReadDmaExt;
  for (int i = 0; i < 6; ++i) {
    table[4 + i] = static_cast<std::uint8_t>(lba >> (8 * i));
  }
  const auto sect16 = static_cast<std::uint16_t>(sectors);
  std::memcpy(table + 12, &sect16, 2);
  std::memcpy(table + 0x80, &buffer_gpa, 8);
  const auto dbc = static_cast<std::uint32_t>(sectors * hw::kSectorSize - 1);
  std::memcpy(table + 0x80 + 12, &dbc, 4);
  gk_->WriteGuestRaw(ctba, table, sizeof(table));

  issued_mask_ |= 1u << slot;
  ++issued_count_;
  gs.regs[4] = 1u << slot;  // CI bit for the issue store.
}

void GuestAhciDriver::EmitIssueSequence() {
  hw::isa::Assembler& as = gk_->text();
  const std::uint64_t retry = as.Here();
  as.NopBlock(1600);  // Command-structure setup (header, FIS, PRDT).
  as.GuestLogic(prepare_logic_);
  as.Jnz(4, as.Here() + 2 * hw::isa::kInsnSize);  // Got a slot?
  as.Jmp(retry);
  // Six-MMIO budget, submission half: free-slot check + issue.
  as.Load(5, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxCi);
  as.Store(4, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxCi);
}

void GuestAhciDriver::CompletionLogic(hw::GuestState& gs) {
  // Driver tag bookkeeping: which of our issued slots completed?
  const std::uint32_t ci = config_.read_ci ? config_.read_ci() : 0;
  std::uint32_t err = 0;
  if (config_.handle_errors && config_.read_err) {
    err = config_.read_err() & issued_mask_;
  }
  const std::uint32_t done = issued_mask_ & ~ci & ~err;
  int completed = 0;
  for (int s = 0; s < hw::ahci::kNumSlots; ++s) {
    if (done & (1u << s)) {
      ++completed;
    }
    if (err & (1u << s)) {
      ++retried_count_;
    }
  }
  // Errored slots stay issued: the emitted ISR tail re-stores their CI
  // bits, which re-submits the commands to the controller.
  issued_mask_ = (issued_mask_ & ci) | err;
  completed_count_ += completed;
  gs.regs[5] = completed;
  if (on_complete_ && completed > 0) {
    on_complete_(completed);
  }
}

void GuestAhciDriver::EmitIsr(std::function<void(int)> on_complete) {
  on_complete_ = std::move(on_complete);
  hw::isa::Assembler& as = gk_->text();
  const std::uint64_t isr = as.Here();
  // Completion half of the six-MMIO budget: read both interrupt-status
  // registers and acknowledge them with write-one-clear stores.
  as.Load(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kIs);
  as.Load(2, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxIs);
  as.Store(2, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxIs);
  as.Store(1, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kIs);
  if (config_.handle_errors) {
    // Error tail, branchless (storing 0 is harmless): read the errored
    // slot mask, let the bookkeeping below see it, then acknowledge it and
    // re-issue the failed slots. Register 6 only — register 4 holds the
    // live issue-path CI bit and an ISR can interleave with submission.
    as.Load(6, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxVs);
  }
  as.NopBlock(1400);  // Tag bookkeeping, request teardown.
  as.GuestLogic(completion_logic_);
  if (config_.handle_errors) {
    as.Store(6, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxVs);
    as.Store(6, hw::isa::kNoReg, config_.mmio_base + hw::ahci::kPxCi);
  }
  gk_->EmitPicHandshake();
  as.Iret();
  gk_->SetVector(config_.irq_vector, isr);
}

}  // namespace nova::guest
