#include "src/guest/workload_compile.h"

namespace nova::guest {
namespace {

constexpr std::uint64_t kDiskReadBytes = 16384;  // One source-file read.

}  // namespace

CompileWorkload::CompileWorkload(GuestKernel* gk, GuestAhciDriver* driver,
                                 Config config)
    : gk_(gk), driver_(driver), config_(config), rng_(config.seed) {
  unit_logic_ =
      gk_->mux().Register([this](hw::GuestState& gs) { UnitSetupLogic(gs); });
  addr_logic_ = gk_->mux().Register([this](hw::GuestState& gs) { AddressLogic(gs); });
  // One address space per compiler process.
  processes_.resize(config_.processes);
  for (Process& p : processes_) {
    p.cr3 = gk_->CreateAddressSpace();
  }
}

std::uint64_t CompileWorkload::PickAddress() {
  Process& p = processes_[current_];
  const bool want_fresh = p.touched.size() < 8 ||
                          (p.touched.size() < config_.ws_pages &&
                           rng_.Chance(config_.fresh_prob));
  std::uint32_t page_index;
  if (want_fresh) {
    page_index = next_fresh_page_++;
    p.touched.push_back(page_index);
    ++fresh_pages_;
  } else {
    page_index = p.touched[rng_.Below(p.touched.size())];
  }
  const std::uint64_t offset = rng_.Below(hw::kPageSize / 8) * 8;
  return GuestLayout::kProcVirtBase +
         static_cast<std::uint64_t>(page_index) * hw::kPageSize + offset;
}

void CompileWorkload::UnitSetupLogic(hw::GuestState& gs) {
  if (units_done_ >= config_.total_units) {
    done_ = true;
    gs.regs[7] = 1;
    return;
  }
  ++units_done_;
  gs.regs[7] = 0;

  // Context switch to the next compiler job?
  gs.regs[5] = 0;
  if (units_done_ % config_.switch_every == 0) {
    current_ = (current_ + 1) % config_.processes;
    // A compile job finishing: its process exits and a fresh one (cold
    // working set, new address space) takes the slot.
    if (config_.recycle_every != 0 && units_done_ % config_.recycle_every == 0) {
      processes_[current_].cr3 = gk_->CreateAddressSpace();
      processes_[current_].touched.clear();
    }
    gs.regs[5] = processes_[current_].cr3;
    ++switches_;
  }

  // Cold-buffer-cache source read?
  gs.regs[0] = 0;
  if (driver_ != nullptr && config_.disk_every != 0 &&
      units_done_ % config_.disk_every == 0 && disk_outstanding_ < 4) {
    gs.regs[0] = 1;
    gs.regs[1] = next_lba_;
    gs.regs[2] = kDiskReadBytes / hw::kSectorSize;
    gs.regs[3] = GuestLayout::kDmaBase + (disk_reads_ % 4) * kDiskReadBytes;
    next_lba_ += kDiskReadBytes / hw::kSectorSize;
    ++disk_reads_;
    ++disk_outstanding_;
  }
}

void CompileWorkload::AddressLogic(hw::GuestState& gs) {
  gs.regs[1] = PickAddress();
  gs.regs[2] = PickAddress();
  gs.regs[3] = PickAddress();
  gs.regs[4] = PickAddress();
}

std::uint64_t CompileWorkload::EmitMain() {
  hw::isa::Assembler& as = gk_->text();

  if (driver_ != nullptr) {
    driver_->EmitIsr([this](int completed) {
      disk_outstanding_ -= std::min<std::uint32_t>(disk_outstanding_, completed);
    });
  }

  const std::uint64_t main = as.Here();
  if (driver_ != nullptr) {
    driver_->EmitInit();
  }
  // Enter the first compiler job's address space.
  as.MovCr3Imm(processes_[0].cr3);

  const std::uint64_t loop = as.Here();
  as.GuestLogic(unit_logic_);  // r7=done, r5=switch cr3, r0=disk, r1-3=req.
  const std::uint64_t jnz_finish = as.Jnz(7, 0);

  // Conditional context switch.
  const std::uint64_t jnz_switch = as.Jnz(5, 0);
  const std::uint64_t jmp_noswitch = as.Jmp(0);
  as.PatchImm64(jnz_switch, as.Here());
  as.MovCr3Reg(5);  // Address-space switch: CR3 write (+ vTLB flush).
  as.PatchImm64(jmp_noswitch, as.Here());

  // Conditional source-file read (asynchronous; ISR retires it).
  if (driver_ != nullptr) {
    const std::uint64_t jnz_disk = as.Jnz(0, 0);
    const std::uint64_t jmp_nodisk = as.Jmp(0);
    as.PatchImm64(jnz_disk, as.Here());
    driver_->EmitIssueSequence();
    as.PatchImm64(jmp_nodisk, as.Here());
  }

  // The compile unit: computation plus working-set memory traffic.
  as.NopBlock(config_.compute_cycles);
  for (std::uint32_t b = 0; b < config_.mem_bursts; ++b) {
    as.GuestLogic(addr_logic_);  // r1..r4 = working-set addresses.
    as.Load(6, 1, 0);
    as.Store(6, 2, 0);
    as.Load(6, 3, 0);
    as.Store(6, 4, 0);
  }
  as.Jmp(loop);

  const std::uint64_t finish = gk_->EmitIdleLoop();
  as.PatchImm64(jnz_finish, finish);
  return main;
}

}  // namespace nova::guest
